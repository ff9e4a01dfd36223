package adversary

import (
	"context"
	"errors"
	"fmt"

	"fastread/internal/abd"
	"fastread/internal/atomicity"
	"fastread/internal/history"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// MWMRResult reports the outcome of the multi-writer demonstration
// (Section 7, Proposition 11): a register whose writes are fast (one
// round-trip, no query phase) cannot be atomic with two writers, whereas the
// two-round ABD MWMR register stays linearizable under the same schedule.
type MWMRResult struct {
	// Config is the deployment used.
	Config quorum.Config
	// NaiveHistory and NaiveReport are the history of the naive fast MWMR
	// register and its linearizability verdict (expected: violation).
	NaiveHistory history.History
	NaiveReport  atomicity.Report
	// ABDHistory and ABDReport are the history of the ABD MWMR register
	// under the same schedule and its verdict (expected: linearizable).
	ABDHistory history.History
	ABDReport  atomicity.Report
	// Narrative describes the schedule.
	Narrative []string
}

// newNaiveMWWriter builds a hypothetical "fast" multi-writer: it skips the
// query phase and stamps writes with a local sequence number and its rank,
// then waits for S−t acknowledgements — exactly one round-trip. Proposition
// 11 says no such register can be atomic; the demonstration makes the failure
// concrete. The local sequence number doubles as the request's nonce.
func newNaiveMWWriter(cfg quorum.Config, node transport.Node, rank int32) (*protoutil.Client[struct{}], error) {
	return protoutil.NewClient(protoutil.ClientConfig{Quorum: cfg, Depth: 1}, node, protoutil.Rounds[struct{}]{
		Name: "adversary: naive mwmr write", Need: cfg.AckQuorum(),
		Begin: func(c *protoutil.Call[struct{}]) error {
			seq := c.NextNonce()
			c.Req = wire.Message{Op: wire.OpWrite, TS: types.Timestamp(seq), WriterRank: rank, Cur: c.Arg, RCounter: seq}
			return nil
		},
	})
}

// newNaiveMWReader builds the matching one-round reader, returning the
// highest (ts, rank) value it sees.
func newNaiveMWReader(cfg quorum.Config, node transport.Node) (*protoutil.Client[abd.MWReadResult], error) {
	return protoutil.NewClient(protoutil.ClientConfig{Quorum: cfg, Depth: 1}, node, protoutil.Rounds[abd.MWReadResult]{
		Name: "adversary: naive mwmr read", Need: cfg.AckQuorum(),
		Begin: protoutil.Ask[abd.MWReadResult](wire.OpRead, ""),
		Finish: func(c *protoutil.Call[abd.MWReadResult], acks []protoutil.Ack) (bool, error) {
			best := acks[0].Msg
			for _, a := range acks[1:] {
				if best.TS < a.Msg.TS || (best.TS == a.Msg.TS && best.WriterRank < a.Msg.WriterRank) {
					best = a.Msg
				}
			}
			c.Result = abd.MWReadResult{Value: best.Cur.Clone(), Timestamp: best.TS, WriterRank: best.WriterRank, RoundTrips: 1}
			return false, nil
		},
	})
}

// The ABD multi-writer clients, reduced to their engines like the naive pair.
func abdMWWriter(cfg quorum.Config, node transport.Node, rank int32) (*protoutil.Client[struct{}], error) {
	w, err := abd.NewMWWriter(abd.ClientConfig{Quorum: cfg}, node, rank)
	if err != nil {
		return nil, err
	}
	return w.Client, nil
}

func abdMWReader(cfg quorum.Config, node transport.Node) (*protoutil.Client[abd.MWReadResult], error) {
	r, err := abd.NewMWReader(abd.ClientConfig{Quorum: cfg}, node)
	if err != nil {
		return nil, err
	}
	return r.Client, nil
}

// deploy hand-wires the one deployment no protocol driver describes — S ABD
// servers and three client identities, two of which write — on a network
// driven by the stage's clock. It returns the client nodes (w1, w2, reader)
// and the teardown.
func deploy(clock *transport.VirtualClock, cfg quorum.Config) (nodes [3]transport.Node, stop func(), err error) {
	net := transport.NewInMemNetwork(transport.WithClock(clock), transport.WithDefaultDelay(hop))
	var servers []*abd.Server
	stop = func() {
		for _, srv := range servers {
			srv.Stop()
		}
		_ = net.Close()
	}
	for i := 1; i <= cfg.Servers; i++ {
		node, err := net.Join(types.Server(i))
		if err != nil {
			return nodes, stop, err
		}
		srv, err := abd.NewServer(abd.ServerConfig{ID: types.Server(i), Workers: 1}, node)
		if err != nil {
			return nodes, stop, err
		}
		srv.Start()
		servers = append(servers, srv)
	}
	for i := range nodes {
		if nodes[i], err = net.Join(types.Reader(i + 1)); err != nil {
			return nodes, stop, err
		}
	}
	return nodes, stop, nil
}

// interchange runs the sequential schedule — writer 2 writes, then writer 1
// writes, then a reader reads — against one multi-writer register, given as
// its client constructors, and judges the recorded history.
func interchange(cfg quorum.Config,
	newWriter func(quorum.Config, transport.Node, int32) (*protoutil.Client[struct{}], error),
	newReader func(quorum.Config, transport.Node) (*protoutil.Client[abd.MWReadResult], error),
) (history.History, atomicity.Report, error) {
	st := newStage()
	nodes, stop, err := deploy(st.clock, cfg)
	defer stop()
	if err != nil {
		return nil, atomicity.Report{}, err
	}
	w1, err1 := newWriter(cfg, nodes[0], 1)
	w2, err2 := newWriter(cfg, nodes[1], 2)
	reader, err3 := newReader(cfg, nodes[2])
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, atomicity.Report{}, err
	}

	write := func(w *protoutil.Client[struct{}], value types.Value) {
		op := invoke(st, w.ID(), history.OpWrite, value,
			func() (*protoutil.Future[struct{}], error) { return w.Submit(context.Background(), value) },
			func(struct{}) (types.Value, types.Timestamp) { return nil, 0 })
		st.complete(op, "write by "+w.ID().String())
	}
	write(w2, types.Value("second-writer"))
	write(w1, types.Value("first-writer"))
	read := invoke(st, reader.ID(), history.OpRead, nil,
		func() (*protoutil.Future[abd.MWReadResult], error) { return reader.Submit(context.Background(), nil) },
		func(res abd.MWReadResult) (types.Value, types.Timestamp) { return res.Value, res.Timestamp })
	st.complete(read, "read")
	if st.err != nil {
		return nil, atomicity.Report{}, st.err
	}
	h := st.rec.History()
	report, err := atomicity.CheckLinearizable(h)
	return h, report, err
}

// RunMWMRDemonstration runs the same sequential schedule — writer 2 writes,
// then writer 1 writes, then a reader reads — against (a) the naive fast
// MWMR register and (b) the ABD MWMR register, and checks both histories for
// linearizability. With local timestamps the naive register orders the two
// writes by rank rather than by real time, so the read returns the earlier
// write's value: exactly the anomaly Proposition 11 proves unavoidable for
// fast multi-writer registers.
func RunMWMRDemonstration(cfg quorum.Config) (MWMRResult, error) {
	if err := cfg.Validate(); err != nil {
		return MWMRResult{}, err
	}
	result := MWMRResult{Config: cfg}
	var err error
	if result.NaiveHistory, result.NaiveReport, err = interchange(cfg, newNaiveMWWriter, newNaiveMWReader); err != nil {
		return result, fmt.Errorf("naive mwmr register: %w", err)
	}
	if result.ABDHistory, result.ABDReport, err = interchange(cfg, abdMWWriter, abdMWReader); err != nil {
		return result, fmt.Errorf("abd mwmr register: %w", err)
	}
	// The read is the last operation of either history.
	result.Narrative = []string{
		fmt.Sprintf("naive fast MWMR register: w2 writes, then w1 writes, then a read returns %s (linearizable=%v)",
			result.NaiveHistory[2].Result, result.NaiveReport.OK),
		fmt.Sprintf("ABD MWMR register (two-round writes): the same schedule returns %s (linearizable=%v)",
			result.ABDHistory[2].Result, result.ABDReport.OK),
	}
	return result, nil
}
