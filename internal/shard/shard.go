// Package shard provides the lazily-populated keyed state map that lets one
// server process host many independent registers.
//
// Every register protocol in this repository keeps a small amount of
// per-register state on each server (a tagged value, a seen set, per-client
// counters). Multiplexing many named registers over one server means
// replacing that single state with a map from register key to state. Map is
// that map, and it relies on the one-mutator rule: a server's executor
// handles every message for every key on one goroutine, one message at a
// time (the paper's server is one sequential step per message). Its one
// mutex therefore never arbitrates between mutators; it orders that
// goroutine against off-goroutine inspection (StateOf, statistics, the
// durable log's snapshot).
//
// State is created lazily on first touch: a server needs no configuration to
// accept a new key, mirroring how a deployment serves an open-ended keyspace.
package shard

import (
	"sync"
)

// Map is a map from register key to per-register state S under one lock. The
// zero value is not usable; construct with NewMap.
type Map[S any] struct {
	newState func(key string) S
	mu       sync.Mutex
	m        map[string]S
}

// NewMap builds an empty map. newState is invoked, under the lock, the first
// time a key is touched.
//
// The ignored first parameter is pinned by frozen cmd/benchreport/layers.go:515.
func NewMap[S any](_ int, newState func(key string) S) *Map[S] {
	return &Map[S]{newState: newState, m: make(map[string]S)}
}

// Do runs fn with the key's state while holding the lock, creating the state
// first if the key has never been touched. fn must not call back into the
// Map.
func (m *Map[S]) Do(key string, fn func(S)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.m[key]
	if !ok {
		s = m.newState(key)
		m.m[key] = s
	}
	fn(s)
}

// Get returns the state of a key that has been touched, looked up by its
// bytes without allocating. It takes no lock, so only the mutator may call it:
// the mutator is the map's only writer, and reads never race reads.
func (m *Map[S]) Get(key []byte) (S, bool) {
	s, ok := m.m[string(key)]
	return s, ok
}

// Peek runs fn with the key's state if (and only if) the key has been
// touched before, returning whether it had. It never instantiates state, so
// read-only inspection of a server does not grow its keyspace.
func (m *Map[S]) Peek(key string, fn func(S)) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.m[key]
	if !ok {
		return false
	}
	fn(s)
	return true
}

// Range runs fn for every key instantiated when it is called, each under the
// lock through Peek. The lock is never held across the whole walk: the
// durable log's snapshot encodes and writes every register from inside fn,
// and the mutator must not wait for all of it. Keys added during the walk
// may or may not be visited.
func (m *Map[S]) Range(fn func(key string, s S)) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.m))
	for k := range m.m {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	for _, k := range keys {
		m.Peek(k, func(s S) { fn(k, s) })
	}
}
