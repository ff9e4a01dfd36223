// Package shard provides the striped, lazily-populated keyed state map that
// lets one server process host many independent registers.
//
// Every register protocol in this repository keeps a small amount of
// per-register state on each server (a tagged value, a seen set, per-client
// counters). Multiplexing many named registers over one server goroutine set
// means replacing that single state with a map from register key to state.
// Map is that map: keys are hashed onto a fixed set of stripes, each stripe
// guarded by its own mutex, so operations on different keys rarely contend
// while operations on the same key are serialised — exactly the per-register
// mutual exclusion the single-register servers enforced with one mutex.
//
// State is created lazily on first touch: a server needs no configuration to
// accept a new key, mirroring how a deployment serves an open-ended keyspace.
package shard

import (
	"sync"
)

// DefaultStripes is the stripe count used when NewMap is given a
// non-positive one. 64 stripes keep contention negligible for realistic
// goroutine counts while costing only 64 mutexes per server.
const DefaultStripes = 64

// Map is a striped map from register key to per-register state S. The zero
// value is not usable; construct with NewMap.
type Map[S any] struct {
	newState func(key string) S
	stripes  []stripe[S]
}

type stripe[S any] struct {
	mu sync.Mutex
	m  map[string]S
}

// NewMap builds a striped map with the given stripe count (DefaultStripes if
// n <= 0). newState is invoked, under the stripe lock, the first time a key
// is touched.
func NewMap[S any](n int, newState func(key string) S) *Map[S] {
	if n <= 0 {
		n = DefaultStripes
	}
	m := &Map[S]{
		newState: newState,
		stripes:  make([]stripe[S], n),
	}
	for i := range m.stripes {
		m.stripes[i].m = make(map[string]S)
	}
	return m
}

// Hash is the 64-bit FNV-1a hash of a register key, inlined to keep key
// lookup allocation-free (hash/fnv forces the key through an io.Writer).
// Exported so every key-hashing component (this map's stripes, the topology
// ring) hashes with the same function.
func Hash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// HashBytes is Hash over a byte-slice key view (the executor dispatches on
// wire.PeekKeyView results without materialising strings).
func HashBytes(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

func (m *Map[S]) stripeFor(key string) *stripe[S] {
	return &m.stripes[Hash(key)%uint64(len(m.stripes))]
}

// Do runs fn with the key's state while holding the key's stripe lock,
// creating the state first if the key has never been touched. Two Do calls
// for the same key never overlap; fn must not call back into the Map.
func (m *Map[S]) Do(key string, fn func(S)) {
	st := m.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[key]
	if !ok {
		s = m.newState(key)
		st.m[key] = s
	}
	fn(s)
}

// Peek runs fn with the key's state if (and only if) the key has been
// touched before, returning whether it had. It never instantiates state, so
// read-only inspection of a server does not grow its keyspace.
func (m *Map[S]) Peek(key string, fn func(S)) bool {
	st := m.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[key]
	if !ok {
		return false
	}
	fn(s)
	return true
}

// Len returns the number of instantiated keys.
func (m *Map[S]) Len() int {
	total := 0
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		total += len(st.m)
		st.mu.Unlock()
	}
	return total
}

// Keys returns every instantiated key, in no particular order.
func (m *Map[S]) Keys() []string {
	out := make([]string, 0, m.Len())
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for k := range st.m {
			out = append(out, k)
		}
		st.mu.Unlock()
	}
	return out
}

// Range runs fn for every instantiated key under that key's stripe lock.
// Keys added concurrently with the iteration may or may not be visited.
func (m *Map[S]) Range(fn func(key string, s S)) {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for k, s := range st.m {
			fn(k, s)
		}
		st.mu.Unlock()
	}
}
