package protoutil

import (
	"context"

	"fastread/internal/transport"
	"fastread/internal/types"
)

// ReadResult is what a read of any protocol returns and how it decided. The
// decision fields are the fast reader's (Figure 2 lines 16-22); the majority
// protocols leave them zero.
type ReadResult struct {
	// Value is the value read; ⊥ (nil) means the register still holds its
	// initial value.
	Value types.Value
	// Timestamp is the logical timestamp of the returned value (0 for ⊥).
	Timestamp types.Timestamp
	// RoundTrips is the number of client↔server round-trips the read used.
	RoundTrips int
	// MaxTimestamp is the highest timestamp observed during a fast read.
	MaxTimestamp types.Timestamp
	// PredicateHeld reports whether the seen-set predicate allowed a fast
	// read to return MaxTimestamp.
	PredicateHeld bool
	// PredicateLevel is the witness a for which the predicate held.
	PredicateLevel int
	// UsedFallback is true when a fast read returned the previous value
	// (MaxTimestamp−1) because the predicate did not hold for the newest one.
	UsedFallback bool
}

// Reader is the read client of every protocol, beside Writer: the engine
// running the protocol's read rounds on a reader identity. ReadAsync keeps up
// to the configured depth of reads in flight — each matched to its
// acknowledgements by its rCounter nonce, a multi-round read holding ONE slot
// — and the blocking Read is ReadAsync at depth one; both are safe for
// concurrent use.
type Reader struct {
	*Client[ReadResult]
	// fallbacks counts the reads that resolved with UsedFallback (guarded by
	// the engine's handle mutex, which Finish runs under).
	fallbacks int64
}

// NewReader creates a reader running the given rounds, which supply Name,
// Need, Begin, Finish and, if the protocol filters acknowledgements, Accept.
// The reader's part is written here once: the identity must be a reader's,
// and the operation counter starts at StartNonce because servers remember the
// counters of a reader's previous incarnations.
func NewReader(cfg ClientConfig, node transport.Node, rounds Rounds[ReadResult]) (*Reader, error) {
	r := &Reader{}
	rounds.Role = types.RoleReader
	rounds.Nonce = StartNonce(cfg.Nonce)
	finish := rounds.Finish
	rounds.Finish = func(c *Call[ReadResult], acks []Ack) (bool, error) {
		more, err := finish(c, acks)
		if err == nil && !more && c.Result.UsedFallback {
			r.fallbacks++
		}
		return more, err
	}
	cl, err := NewClient(cfg, node, rounds)
	if err != nil {
		return nil, err
	}
	r.Client = cl
	return r, nil
}

// Read returns the register's current value: ReadAsync at depth one, then
// wait.
func (r *Reader) Read(ctx context.Context) (ReadResult, error) { return r.Do(ctx, nil) }

// ReadAsync submits one read and returns its future without waiting for any
// acknowledgement.
func (r *Reader) ReadAsync(ctx context.Context) (*Future[ReadResult], error) {
	return r.Submit(ctx, nil)
}

// Stats reports the reads completed, the round-trips they used and how many
// of them fell back to the previous value (always 0 for protocols without a
// predicate).
func (r *Reader) Stats() (reads, roundTrips, fallbacks int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops, r.trips, r.fallbacks
}
