package adversary

import (
	"context"
	"fmt"
	"time"

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
func newNaiveMWReader(cfg quorum.Config, node transport.Node) (*protoutil.Client[types.Value], error) {
	return protoutil.NewClient(protoutil.ClientConfig{Quorum: cfg, Depth: 1}, node, protoutil.Rounds[types.Value]{
		Name: "adversary: naive mwmr read", Need: cfg.AckQuorum(),
		Begin: protoutil.Ask[types.Value](wire.OpRead, ""),
		Finish: func(c *protoutil.Call[types.Value], acks []protoutil.Ack) (bool, error) {
			best := acks[0].Msg
			for _, a := range acks[1:] {
				if best.TS < a.Msg.TS || (best.TS == a.Msg.TS && best.WriterRank < a.Msg.WriterRank) {
					best = a.Msg
				}
			}
			c.Result = best.Cur.Clone()
			return false, nil
		},
	})
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
	narrate := func(format string, args ...any) {
		result.Narrative = append(result.Narrative, fmt.Sprintf(format, args...))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// --- Naive fast MWMR register ---------------------------------------
	{
		net := transport.NewInMemNetwork()
		servers := make([]*abd.Server, 0, cfg.Servers)
		for i := 1; i <= cfg.Servers; i++ {
			node, err := net.Join(types.Server(i))
			if err != nil {
				return result, err
			}
			srv, err := abd.NewServer(abd.ServerConfig{ID: types.Server(i)}, node)
			if err != nil {
				return result, err
			}
			srv.Start()
			servers = append(servers, srv)
		}
		w1Node, err := net.Join(types.Reader(1))
		if err != nil {
			return result, err
		}
		w2Node, err := net.Join(types.Reader(2))
		if err != nil {
			return result, err
		}
		rNode, err := net.Join(types.Reader(3))
		if err != nil {
			return result, err
		}
		w1, err := newNaiveMWWriter(cfg, w1Node, 1)
		if err != nil {
			return result, err
		}
		w2, err := newNaiveMWWriter(cfg, w2Node, 2)
		if err != nil {
			return result, err
		}
		reader, err := newNaiveMWReader(cfg, rNode)
		if err != nil {
			return result, err
		}

		recorder := history.NewRecorder()
		runOp := func(proc types.ProcessID, kind history.OpKind, arg types.Value, do func() (types.Value, error)) error {
			op := recorder.Invoke(proc, kind, arg)
			value, err := do()
			if err != nil {
				recorder.Fail(op)
				return err
			}
			recorder.Return(op, value, 0)
			return nil
		}

		if err := runOp(types.Reader(2), history.OpWrite, types.Value("second-writer"), func() (types.Value, error) {
			_, err := w2.Do(ctx, types.Value("second-writer"))
			return nil, err
		}); err != nil {
			return result, fmt.Errorf("naive mwmr write by w2: %w", err)
		}
		if err := runOp(types.Reader(1), history.OpWrite, types.Value("first-writer"), func() (types.Value, error) {
			_, err := w1.Do(ctx, types.Value("first-writer"))
			return nil, err
		}); err != nil {
			return result, fmt.Errorf("naive mwmr write by w1: %w", err)
		}
		if err := runOp(types.Reader(3), history.OpRead, nil, func() (types.Value, error) {
			return reader.Do(ctx, nil)
		}); err != nil {
			return result, fmt.Errorf("naive mwmr read: %w", err)
		}

		for _, srv := range servers {
			srv.Stop()
		}
		_ = net.Close()

		result.NaiveHistory = recorder.History()
		report, err := atomicity.CheckLinearizable(result.NaiveHistory)
		if err != nil {
			return result, err
		}
		result.NaiveReport = report
		narrate("naive fast MWMR register: w2 writes, then w1 writes, then a read returns %s (linearizable=%v)",
			lastReadValue(result.NaiveHistory), report.OK)
	}

	// --- ABD MWMR register ----------------------------------------------
	{
		net := transport.NewInMemNetwork()
		servers := make([]*abd.Server, 0, cfg.Servers)
		for i := 1; i <= cfg.Servers; i++ {
			node, err := net.Join(types.Server(i))
			if err != nil {
				return result, err
			}
			srv, err := abd.NewServer(abd.ServerConfig{ID: types.Server(i)}, node)
			if err != nil {
				return result, err
			}
			srv.Start()
			servers = append(servers, srv)
		}
		w1Node, err := net.Join(types.Reader(1))
		if err != nil {
			return result, err
		}
		w2Node, err := net.Join(types.Reader(2))
		if err != nil {
			return result, err
		}
		rNode, err := net.Join(types.Reader(3))
		if err != nil {
			return result, err
		}
		clientCfg := abd.ClientConfig{Quorum: cfg}
		w1, err := abd.NewMWWriter(clientCfg, w1Node, 1)
		if err != nil {
			return result, err
		}
		w2, err := abd.NewMWWriter(clientCfg, w2Node, 2)
		if err != nil {
			return result, err
		}
		reader, err := abd.NewMWReader(clientCfg, rNode)
		if err != nil {
			return result, err
		}

		recorder := history.NewRecorder()
		writeOp := recorder.Invoke(types.Reader(2), history.OpWrite, types.Value("second-writer"))
		if err := w2.Write(ctx, types.Value("second-writer")); err != nil {
			return result, fmt.Errorf("abd mwmr write by w2: %w", err)
		}
		recorder.Return(writeOp, nil, 0)
		writeOp = recorder.Invoke(types.Reader(1), history.OpWrite, types.Value("first-writer"))
		if err := w1.Write(ctx, types.Value("first-writer")); err != nil {
			return result, fmt.Errorf("abd mwmr write by w1: %w", err)
		}
		recorder.Return(writeOp, nil, 0)
		readOp := recorder.Invoke(types.Reader(3), history.OpRead, nil)
		res, err := reader.Read(ctx)
		if err != nil {
			return result, fmt.Errorf("abd mwmr read: %w", err)
		}
		recorder.Return(readOp, res.Value, res.Timestamp)

		for _, srv := range servers {
			srv.Stop()
		}
		_ = net.Close()

		result.ABDHistory = recorder.History()
		report, err := atomicity.CheckLinearizable(result.ABDHistory)
		if err != nil {
			return result, err
		}
		result.ABDReport = report
		narrate("ABD MWMR register (two-round writes): the same schedule returns %s (linearizable=%v)",
			lastReadValue(result.ABDHistory), report.OK)
	}

	return result, nil
}

// lastReadValue returns the value returned by the last completed read in the
// history, for narration.
func lastReadValue(h history.History) types.Value {
	reads := h.Reads()
	if len(reads) == 0 {
		return nil
	}
	return reads[len(reads)-1].Result
}
