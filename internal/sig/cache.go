package sig

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"fastread/internal/types"
	"fastread/internal/wire"
)

// DefaultCacheCapacity is the per-generation entry bound used when NewCache
// is given a non-positive capacity. Steady-state traffic re-verifies a
// handful of live (key, ts) pairs per register; 4096 distinct signatures per
// generation covers thousands of concurrently hot registers while bounding
// the cache to a few hundred KiB.
const DefaultCacheCapacity = 4096

// Cache memoises successful signature verifications. The arbitrary-failure
// protocol (Figure 5) makes every server re-verify the SAME writer signature
// on every read round-trip — the read request writes back the reader's
// last-observed (ts, cur, prev, sig), and the server's reply carries the
// stored signature, both of which change only when the writer writes. A
// bounded memo of already-verified signatures turns that steady-state
// asymmetric-crypto cost (tens of microseconds per Ed25519 verification)
// into one short hash per message.
//
// Entries are keyed by SHA-256 over the canonical signed bytes (which
// domain-separate the register key) concatenated with the signature, so a
// cache hit proves the exact (key, ts, cur, prev, sig) tuple verified before;
// a malicious server cannot construct a colliding tuple without breaking the
// hash. Only SUCCESSFUL verifications are cached — failures stay expensive,
// which is fine because honest traffic never produces them.
//
// Eviction is two-generation (the classic "flip" scheme): inserts go to the
// current generation; when it fills, the previous generation is dropped and
// the current one takes its place. Memory is bounded by 2×capacity digests
// with O(1) amortised cost and no per-entry bookkeeping.
type Cache struct {
	v        Verifier
	capacity int

	mu   sync.RWMutex
	cur  map[[sha256.Size]byte]struct{}
	prev map[[sha256.Size]byte]struct{}

	hits, misses atomic.Int64
}

// NewCache wraps the verifier in a verified-signature cache bounding each of
// its two generations to capacity entries (DefaultCacheCapacity if <= 0).
func NewCache(v Verifier, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		v:        v,
		capacity: capacity,
		cur:      make(map[[sha256.Size]byte]struct{}),
	}
}

// VerifyKeyed checks the writer's signature over the (key, ts, cur, prev)
// tuple, consulting the cache first. Timestamp 0 bypasses the cache entirely:
// its acceptance rule is a cheap structural check, not asymmetric crypto.
func (c *Cache) VerifyKeyed(key string, ts types.Timestamp, cur, prev types.Value, signature []byte) error {
	if ts == types.InitialTimestamp {
		return c.v.VerifyKeyed(key, ts, cur, prev, signature)
	}

	bp := wire.GetBuffer()
	buf := wire.AppendSignedBytes(*bp, key, ts, cur, prev)
	buf = append(buf, signature...)
	digest := sha256.Sum256(buf)
	*bp = buf
	wire.PutBuffer(bp)

	c.mu.RLock()
	_, hit := c.cur[digest]
	inPrev := false
	if !hit {
		_, inPrev = c.prev[digest]
	}
	c.mu.RUnlock()
	if hit || inPrev {
		if inPrev {
			// Promote actively-hit entries into the current generation so a
			// continuously hot signature survives the next flip instead of
			// being re-verified once per flip cycle.
			c.insert(digest)
		}
		c.hits.Add(1)
		return nil
	}

	if err := c.v.VerifyKeyed(key, ts, cur, prev, signature); err != nil {
		return err
	}
	c.misses.Add(1)
	c.insert(digest)
	return nil
}

// insert records a verified digest in the current generation, flipping
// generations when it is full.
func (c *Cache) insert(digest [sha256.Size]byte) {
	c.mu.Lock()
	if _, dup := c.cur[digest]; !dup {
		if len(c.cur) >= c.capacity {
			c.prev = c.cur
			c.cur = make(map[[sha256.Size]byte]struct{}, c.capacity)
		}
		c.cur[digest] = struct{}{}
	}
	c.mu.Unlock()
}

// Stats reports how many verifications were answered from the cache versus
// performed with asymmetric crypto.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
