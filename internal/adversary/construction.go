package adversary

import (
	"context"

	"fastread"
	"fastread/internal/atomicity"
	"fastread/internal/history"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// ReaderKind selects which read implementation is placed under the
// adversarial schedule.
type ReaderKind int

const (
	// ReaderPaper uses the paper's fast reader (with the seen-set
	// predicate).
	ReaderPaper ReaderKind = iota + 1
	// ReaderNaive uses the strawman reader that returns the highest
	// timestamp it sees, with no predicate.
	ReaderNaive
)

// String names the reader kind.
func (k ReaderKind) String() string {
	switch k {
	case ReaderPaper:
		return "paper"
	case ReaderNaive:
		return "naive"
	default:
		return "unknown"
	}
}

// ConstructionResult is the outcome of executing a lower-bound schedule.
type ConstructionResult struct {
	// Config is the deployment the schedule ran against.
	Config quorum.Config
	// Kind says which reader implementation was attacked.
	Kind ReaderKind
	// BoundSatisfied reports whether the configuration satisfies the
	// fast-read bound (in which case the paper predicts no violation for
	// its own algorithm).
	BoundSatisfied bool
	// History is the recorded operation history of the schedule, stamped
	// with virtual time: the same configuration and reader kind reproduce
	// it byte for byte.
	History history.History
	// Report is the atomicity verdict on that history.
	Report atomicity.Report
	// Violation is a convenience alias for !Report.OK.
	Violation bool
	// LastReaderTS is the timestamp returned by reader rR's read (the read
	// the proof forces to return the written value).
	LastReaderTS types.Timestamp
	// FirstReaderTS is the timestamp returned by r1's final read (the read
	// the proof forces to return an older value).
	FirstReaderTS types.Timestamp
	// Narrative describes the schedule step by step, each line stamped with
	// the virtual time it was written at.
	Narrative []string
}

// RunCrashConstruction executes the Proposition 5 schedule (Figures 3 and 4)
// against a deployment of the paper's servers and writer, with readers of the
// requested kind: the schedule of runSchedule over the crash partition
// B1..B_{R+2}, which has no malicious blocks. It violates atomicity exactly
// when R ≥ S/t − 2.
func RunCrashConstruction(cfg quorum.Config, kind ReaderKind) (ConstructionResult, error) {
	return runSchedule(cfg, kind, false, nil)
}

// RunByzantineConstruction executes the Proposition 10 schedule (Figure 6)
// against the arbitrary-failure algorithm: the schedule of runSchedule over
// the Byzantine partition, whose primary blocks T1..T_{R+2} hold honest
// servers and whose shadow blocks B1..B_{R+1} hold malicious servers that
// "lose their memory" towards reader r1 (they answer r1 as if they had never
// received any message, and answer everyone else honestly). It violates
// atomicity exactly at or beyond the bound S ≤ (R+2)t + (R+1)b.
func RunByzantineConstruction(cfg quorum.Config, kind ReaderKind) (ConstructionResult, error) {
	return runSchedule(cfg, kind, true, nil)
}

// toward applies a link control to every client→server link into the blocks;
// back applies it to the reply links.
func toward(control func(from, to types.ProcessID), client types.ProcessID, blocks ...[]types.ProcessID) {
	for _, block := range blocks {
		for _, s := range block {
			control(client, s)
		}
	}
}

func back(control func(from, to types.ProcessID), client types.ProcessID, blocks ...[]types.ProcessID) {
	toward(func(c, s types.ProcessID) { control(s, c) }, client, blocks...)
}

// writeFuture gives the public write future, which resolves with an error
// only, the shape of every other future.
type writeFuture struct{ *fastread.WriteFuture }

func (w writeFuture) Result(ctx context.Context) (struct{}, error) {
	return struct{}{}, w.WriteFuture.Result(ctx)
}

// runSchedule is the lower-bound schedule, written once: the final partial
// run prC of the proofs of Propositions 5 and 10, over the partition's
// primary blocks T1..T_{R+2} (called B in the crash model) and, when
// byzantine, its malicious shadow blocks B1..B_{R+1}.
//
//  1. write(1) is invoked but its messages reach only T_{R+1} and B_{R+1}.
//  2. Readers r1..r_{R−1} invoke reads that remain incomplete: r_h's
//     messages skip T_h..T_R and B_{h+1}..B_R, and its replies stay in
//     transit.
//  3. Reader rR performs a complete read that skips T_R. If the
//     implementation is fast and correct it must return the written value.
//  4. (prA) r1's pending read completes without ever hearing from T_{R+1};
//     the malicious B_{R+1} denies having seen the write.
//  5. (prC) r1 performs a second complete read that skips T_{R+1}.
//
// At or beyond the bound every server sits in a block, step 5 returns the
// old value after step 3 returned the new one, and the history is not
// atomic; within it the leftover servers, which the adversary cannot hide
// in any block, break the construction. beforeFinalRead, when non-nil,
// adjusts the links between steps 4 and 5; the schedule's own tests use it to
// show that the verdict comes from the schedule and not from the stage.
func runSchedule(cfg quorum.Config, kind ReaderKind, byzantine bool, beforeFinalRead func(*transport.InMemNetwork)) (ConstructionResult, error) {
	part, err := buildPartition(cfg, byzantine)
	if err != nil {
		return ConstructionResult{}, err
	}
	st := newStage()
	result := ConstructionResult{Config: cfg, Kind: kind, BoundSatisfied: cfg.FastReadPossible()}
	malicious := part.MaliciousServers()
	cluster, err := st.deployCluster(cfg, kind, malicious)
	if err != nil {
		return result, err
	}
	defer cluster.Close()
	net, err := cluster.Network()
	if err != nil {
		return result, err
	}
	readers := cluster.Readers()
	read := func(i int) *operation {
		return invoke(st, types.Reader(i), history.OpRead, nil,
			func() (*fastread.ReadFuture, error) { return readers[i-1].ReadAsync(context.Background()) },
			func(res fastread.ReadResult) (types.Value, types.Timestamp) {
				return res.Value, types.Timestamp(res.Version)
			})
	}

	R := cfg.Readers
	w, r1, rR := types.Writer(), types.Reader(1), types.Reader(R)
	T, B := part.Primary, part.Shadow
	st.narrate("partition: blocks 1..%d=%v | malicious blocks 1..%d=%v | extra=%v", len(T), T, len(B), B, part.Extra)

	// Step 1: the incomplete write(1).
	toward(net.Hold, w, span(T, 1, R), span(T, R+2, R+2), span(B, 1, R), part.Extra)
	value := types.Value("v1")
	invoke(st, w, history.OpWrite, value,
		func() (writeFuture, error) {
			f, err := cluster.Writer().WriteAsync(context.Background(), value)
			return writeFuture{f}, err
		},
		func(struct{}) (types.Value, types.Timestamp) { return nil, 1 })
	st.narrate("write(1) invoked; its messages reach only block %d=%v (malicious: %v)", R+1, T[R], span(B, R+1, R+1))
	st.settle()

	// Step 2: incomplete reads by r1..r_{R−1}. r1's replies stay in transit
	// only from the blocks withheld until prA; the other readers' from
	// everyone (their reads never finish).
	var first *operation
	for h := 1; h <= R-1; h++ {
		rh := types.Reader(h)
		toward(net.Hold, rh, span(T, h, R), span(B, h+1, R))
		if h == 1 {
			back(net.Hold, rh, span(T, R+1, R+2), span(B, 1, 1), span(B, R+1, R+1), part.Extra)
		} else {
			back(net.Hold, rh, span(T, 1, R+2), malicious, part.Extra)
		}
		if op := read(h); h == 1 {
			first = op
		}
		st.narrate("read by r%d invoked; it skips blocks %d..%d (malicious: %v) and its replies stay in transit", h, h, R, span(B, h+1, R))
		st.settle()
	}

	// Step 3: the complete read by rR, skipping T_R.
	toward(net.Hold, rR, span(T, R, R))
	last := read(R)
	st.complete(last, "rR's read")
	st.narrate("complete read by r%d (skipping block %d) returned ts=%d value=%s", R, R, last.ts, last.value)

	// Step 4 (prA): r1's pending read completes.
	toward(net.Release, r1, span(T, 1, R), span(B, 2, R))
	back(net.Release, r1, span(T, R+2, R+2), span(B, 1, 1), span(B, R+1, R+1), part.Extra)
	st.complete(first, "r1's first read in prA")
	st.narrate("r1's first read completed with ts=%d; block %d stayed silent", first.ts, R+1)

	// Step 5 (prC): r1's second read skips T_{R+1}.
	if beforeFinalRead != nil {
		beforeFinalRead(net)
	}
	toward(net.Hold, r1, span(T, R+1, R+1))
	final := read(1)
	st.complete(final, "r1's second read")
	st.narrate("r1's second read (skipping block %d) returned ts=%d value=%s", R+1, final.ts, final.value)

	// The write and r2..r_{R−1}'s reads stay incomplete. Judge the history.
	result.LastReaderTS, result.FirstReaderTS = last.ts, final.ts
	result.History, result.Narrative = st.rec.History(), st.narrative
	if st.err != nil {
		return result, st.err
	}
	if result.Report, err = atomicity.CheckSWMR(result.History); err != nil {
		return result, err
	}
	result.Violation = !result.Report.OK
	if result.Violation {
		st.narrate("atomicity VIOLATED: %s", result.Report.Violations[0].Message)
	} else {
		st.narrate("no atomicity violation")
	}
	result.Narrative = st.narrative
	return result, nil
}
