package abd

import (
	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/wire"
)

// Errors returned by the ABD clients: the engine's, under the names this
// package's callers match.
var (
	ErrBottomWrite = protoutil.ErrBottomWrite
	ErrNotWriter   = protoutil.ErrNotWriter
	ErrNotReader   = protoutil.ErrNotReader
)

// ClientConfig configures an ABD client (writer or reader). ABD uses majority
// quorums, so it requires t < S/2 but places no bound on the number of
// readers; the signature fields are ignored.
type ClientConfig = protoutil.ClientConfig

// Writer is the single-writer ABD writer: the engine's single-writer client
// waiting for a majority, one round-trip per write, exactly as in the paper's
// description of [Attiya et al. 1995].
type Writer = protoutil.Writer

// NewWriter creates the SWMR ABD writer.
func NewWriter(cfg ClientConfig, node transport.Node) (*Writer, error) {
	return protoutil.NewWriter("abd", cfg.Quorum.Majority(), nil, cfg, node)
}

// Reader is the SWMR ABD reader: the engine's reader running query a majority,
// select the highest timestamp, write it back to a majority, then return.
// Each read is a two-round operation on one in-flight slot, so Depth bounds
// whole reads, not round-trips. Unlike the fast register, any number of
// readers is supported.
type Reader = protoutil.Reader

// NewReader creates an SWMR ABD reader. Round 1 queries a majority for their
// current (ts, value).
func NewReader(cfg ClientConfig, node transport.Node) (*Reader, error) {
	return protoutil.NewReader(cfg, node, protoutil.Rounds[protoutil.ReadResult]{
		Name: "abd read", Need: cfg.Quorum.Majority(),
		Begin: protoutil.Ask[protoutil.ReadResult](wire.OpRead, cfg.Key), Finish: writeBack,
	})
}

// writeBack selects the highest timestamp of round 1's replies and writes it
// back to a majority (round 2) before the read returns, so that no later read
// can return an older value.
func writeBack(c *protoutil.Call[protoutil.ReadResult], acks []protoutil.Ack) (bool, error) {
	if c.Req.Op == wire.OpWriteBack {
		c.Result.RoundTrips = c.Round
		return false, nil
	}
	maxTS, best, _ := protoutil.MaxTimestamp(acks)
	// The result value must survive past the round: clone it now. The
	// transient write-back request aliases the ack instead.
	c.Result = protoutil.ReadResult{Value: best.Msg.Cur.Clone(), Timestamp: maxTS}
	c.Req = wire.Message{
		Op:       wire.OpWriteBack,
		Key:      c.Req.Key,
		TS:       maxTS,
		Cur:      best.Msg.Cur,
		Prev:     best.Msg.Prev,
		RCounter: c.NextNonce(),
	}
	return true, nil
}
