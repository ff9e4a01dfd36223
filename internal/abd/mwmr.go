package abd

import (
	"context"
	"fmt"

	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// MWWriter is a multi-writer ABD writer in the style of Lynch–Shvartsman:
// every write first queries a majority for the highest (ts, rank) pair, then
// writes (ts+1, ownRank). Two round-trips per write — Proposition 11 of the
// paper shows this second round cannot be avoided by any fast MWMR
// implementation. Writes are blocking: a depth-one user of the client engine.
type MWWriter struct {
	*protoutil.Client[struct{}]
	rank int32
}

// NewMWWriter creates a multi-writer client. Writers are identified by their
// reader-style index (w1, w2, ... are modelled as reader identities with a
// writer rank) or by the canonical writer identity for rank 1; any client
// identity is accepted because the MWMR model has no distinguished writer.
func NewMWWriter(cfg ClientConfig, node transport.Node, rank int32) (*MWWriter, error) {
	if rank < 1 {
		return nil, fmt.Errorf("abd: writer rank must be ≥ 1, got %d", rank)
	}
	w := &MWWriter{rank: rank}
	cfg.Depth = 1
	// Round 1 discovers the highest (ts, rank) currently in the system.
	cl, err := protoutil.NewClient(cfg, node, protoutil.Rounds[struct{}]{
		Name: "abd mwmr write", Need: cfg.Quorum.Majority(),
		Begin: protoutil.Ask[struct{}](wire.OpQuery, cfg.Key), Finish: w.finish,
	})
	if err != nil {
		return nil, err
	}
	w.Client = cl
	return w, nil
}

// Write stores v in the multi-writer register using two round-trips.
func (w *MWWriter) Write(ctx context.Context, v types.Value) error {
	if v.IsBottom() {
		return ErrBottomWrite
	}
	_, err := w.Do(ctx, v)
	return err
}

// finish turns round 1's replies into round 2: write (maxTS+1, ownRank).
func (w *MWWriter) finish(c *protoutil.Call[struct{}], acks []protoutil.Ack) (bool, error) {
	if c.Req.Op == wire.OpWrite {
		return false, nil
	}
	_, highest := highestVersion(acks)
	// Write blocks until the operation resolves, so the transient request
	// aliases the caller's value without cloning.
	c.Req = wire.Message{
		Op:         wire.OpWrite,
		Key:        c.Req.Key,
		TS:         highest.TS.Next(),
		WriterRank: w.rank,
		Cur:        c.Arg,
		RCounter:   c.NextNonce(),
	}
	return true, nil
}

// highestVersion returns an ack carrying the highest (ts, rank) pair among
// the acks, and the pair.
func highestVersion(acks []protoutil.Ack) (protoutil.Ack, VersionedValue) {
	best, bestVV := acks[0], VersionedValue{TS: acks[0].Msg.TS, Rank: acks[0].Msg.WriterRank}
	for _, a := range acks[1:] {
		if candidate := (VersionedValue{TS: a.Msg.TS, Rank: a.Msg.WriterRank}); bestVV.Less(candidate) {
			best, bestVV = a, candidate
		}
	}
	return best, bestVV
}

// MWReadResult is the result of a multi-writer read.
type MWReadResult struct {
	Value      types.Value
	Timestamp  types.Timestamp
	WriterRank int32
	RoundTrips int
}

// MWReader is the multi-writer ABD reader: query a majority, select the
// highest (ts, rank), write it back, return. Two round-trips; reads are
// blocking, a depth-one user of the client engine.
type MWReader struct {
	*protoutil.Client[MWReadResult]
}

// NewMWReader creates a multi-writer reader.
func NewMWReader(cfg ClientConfig, node transport.Node) (*MWReader, error) {
	cfg.Depth = 1
	cl, err := protoutil.NewClient(cfg, node, protoutil.Rounds[MWReadResult]{
		Name: "abd mwmr read", Need: cfg.Quorum.Majority(),
		Begin: protoutil.Ask[MWReadResult](wire.OpQuery, cfg.Key), Finish: mwWriteBack,
	})
	if err != nil {
		return nil, err
	}
	return &MWReader{cl}, nil
}

// Read returns the current value of the multi-writer register.
func (r *MWReader) Read(ctx context.Context) (MWReadResult, error) { return r.Do(ctx, nil) }

// mwWriteBack turns the query round's replies into the write-back round.
func mwWriteBack(c *protoutil.Call[MWReadResult], acks []protoutil.Ack) (bool, error) {
	if c.Req.Op == wire.OpWriteBack {
		c.Result.RoundTrips = c.Round
		return false, nil
	}
	best, vv := highestVersion(acks)
	c.Result = MWReadResult{Value: best.Msg.Cur.Clone(), Timestamp: vv.TS, WriterRank: vv.Rank}
	c.Req = wire.Message{
		Op:         wire.OpWriteBack,
		Key:        c.Req.Key,
		TS:         vv.TS,
		WriterRank: vv.Rank,
		Cur:        best.Msg.Cur,
		RCounter:   c.NextNonce(),
	}
	return true, nil
}
