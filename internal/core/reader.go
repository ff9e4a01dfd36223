package core

import (
	"fmt"

	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// ReaderConfig configures a reader process ri: Quorum and Key, Depth for
// ReadAsync, Nonce for deterministic simulation, and Byzantine + Verifier for
// the arbitrary-failure variant (Figure 5), where readers verify the writer's
// signature on every acknowledgement and discard replies from servers that
// pretend not to have seen the written-back timestamp.
type ReaderConfig = protoutil.ClientConfig

// ReadResult reports what a read returned and how it decided: the engine's
// one read result (the decision fields are this reader's).
type ReadResult = protoutil.ReadResult

// Reader is the reader-side of the fast algorithms (Figure 2 / Figure 5
// lines 9-22): the engine's reader running the one-round description below.
// Read, ReadAsync and Stats are the embedded protoutil.Reader's, which is
// also what the driver registry hands out; the struct around it is the
// round's own state.
type Reader struct {
	*protoutil.Reader
	key    string
	quorum quorum.Config
	// legit is the mask of the writer and r1..rR: the only seen-set bits the
	// predicate counts.
	legit types.ClientMask

	// verify memoises writer-signature verifications in the Byzantine
	// variant: every ack of a steady-state read carries the same signed
	// tuple, so only its first sighting pays for asymmetric crypto. Nil in
	// the crash model.
	verify *sig.Cache

	// The fields below are touched only in begin and finish, which the engine
	// runs one at a time under the handle's mutex.
	last    types.TaggedValue // highest observed timestamp and its tags
	lastSig []byte
	// pred is the predicate kernel's scratch: its buffers recycle across
	// reads instead of allocating per read.
	pred predicateScratch
}

// NewReader creates reader client ri bound to the given transport node.
func NewReader(cfg ReaderConfig, node transport.Node) (*Reader, error) {
	// The predicate counts r1..rR only; every other identity rule (and the nil
	// node) is the engine's to reject.
	if node != nil && node.ID().Role == types.RoleReader && node.ID().Index > cfg.Quorum.Readers {
		return nil, fmt.Errorf("%w: got %v with R=%d", ErrNotReader, node.ID(), cfg.Quorum.Readers)
	}
	r := &Reader{key: cfg.Key, quorum: cfg.Quorum, legit: types.Clients(cfg.Quorum.Readers), last: types.InitialTaggedValue()}
	rounds := protoutil.Rounds[ReadResult]{
		Name: "core read", Need: cfg.Quorum.AckQuorum(), Begin: r.begin, Finish: r.finish,
	}
	if cfg.Byzantine {
		r.verify = sig.NewCache(cfg.Verifier, 0)
		rounds.Accept = r.acceptSigned
	}
	rd, err := protoutil.NewReader(cfg, node, rounds)
	if err != nil {
		return nil, err
	}
	r.Reader = rd
	return r, nil
}

// begin is Figure 2 line 13: rCounter ← rCounter+1; ts ← maxTS. The read
// request writes back the highest timestamp the reader has observed, together
// with its value tags (and the writer's signature in the arbitrary-failure
// variant) so servers can adopt it; the transient request aliases the
// reader's own state without cloning.
func (r *Reader) begin(c *protoutil.Call[ReadResult]) error {
	c.Req = wire.Message{
		Op:        wire.OpRead,
		Key:       r.key,
		TS:        r.last.TS,
		Cur:       r.last.Cur,
		Prev:      r.last.Prev,
		RCounter:  c.NextNonce(),
		WriterSig: r.lastSig,
	}
	return nil
}

// acceptSigned is Figure 5 line 15, on top of the engine's rCounter match
// (which is all of Figure 2 line 15): accept only valid acknowledgements with
// ts' ≥ ts (the written-back timestamp) and ri ∈ seen'. Anything else is
// necessarily from a malicious server.
func (r *Reader) acceptSigned(c *protoutil.Call[ReadResult], _ types.ProcessID, m *wire.Message) bool {
	if m.TS < c.Req.TS || !m.SeenMask.Has(r.ID()) {
		return false
	}
	return r.verify.VerifyKeyed(r.key, m.TS, m.Cur, m.Prev, m.WriterSig) == nil
}

// finish turns a completed quorum into the read's result: Figure 2 lines
// 16-22.
func (r *Reader) finish(c *protoutil.Call[ReadResult], acks []protoutil.Ack) (bool, error) {
	// Lines 16-19: find maxTS and evaluate the predicate over the seen sets
	// of the messages carrying it. Bits past R name fictitious clients, which
	// a malicious server may set but which never help an honest run.
	maxTS, first, _ := protoutil.MaxTimestamp(acks)
	r.pred.reset()
	for _, a := range acks {
		if a.Msg.TS == maxTS {
			r.pred.add(a.Msg.SeenMask & r.legit)
		}
	}
	level, _, _, err := r.pred.decide(r.quorum)
	if err != nil {
		return false, fmt.Errorf("evaluate predicate: %w", err)
	}

	// Remember the highest observed timestamp (and its tags) for later
	// reads' write-backs, regardless of what this read returns. Pipelined
	// reads complete in any order, so only a strictly newer observation is
	// adopted — a slow sibling must not roll the write-back window back.
	// This is a retention point: the ack's fields alias the delivered
	// payload, so the reader clones what it keeps (reusing its signature
	// buffer).
	tagged := first.Msg.Tagged()
	if tagged.TS > r.last.TS {
		r.last = tagged.Clone()
		r.lastSig = append(r.lastSig[:0], first.Msg.WriterSig...)
	}

	c.Result = ReadResult{
		MaxTimestamp:   maxTS,
		PredicateHeld:  level != 0,
		PredicateLevel: level,
		UsedFallback:   level == 0,
		RoundTrips:     1,
	}
	if c.Result.PredicateHeld {
		c.Result.Timestamp = maxTS
		c.Result.Value = tagged.Cur.Clone()
	} else {
		c.Result.Timestamp = maxTS.Prev()
		c.Result.Value = tagged.Prev.Clone()
	}
	return false, nil
}
