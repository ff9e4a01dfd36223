package adversary

import (
	"context"
	"fmt"
	"time"

	"fastread"
	"fastread/internal/driver"
	"fastread/internal/history"
	"fastread/internal/quorum"
	"fastread/internal/sim"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// hop is the virtual one-way delay of every message on a stage and the pause
// before each invocation: a complete read takes two hops, and an operation
// invoked after another returned is stamped strictly later ("precedes").
const hop = time.Millisecond

// stage is what a partial run is executed on (see the package comment): a
// virtual clock the script steps itself, a recorder stamping operations with
// it, and the operations in flight. A script is straight-line code on one
// goroutine: adjust the links, invoke, settle, look at what completed. The
// first failure sticks in err and turns every later step into a no-op, so a
// script checks once, at its end.
type stage struct {
	clock     *transport.VirtualClock
	rec       *history.Recorder
	inflight  []*operation
	narrative []string
	err       error
}

// operation is one invoked operation. returned, value and ts are filled in
// when settle finds the operation's future resolved.
type operation struct {
	id      int64
	done    <-chan struct{}
	resolve func() error // reads the resolved future into value and ts

	returned bool
	value    types.Value
	ts       types.Timestamp
}

// future is what the public handles' and the client engine's futures have in
// common.
type future[T any] interface {
	Done() <-chan struct{}
	Result(context.Context) (T, error)
}

func newStage() *stage {
	clock := transport.NewVirtualClock()
	return &stage{clock: clock, rec: history.NewRecorderWithClock(clock.Now)}
}

func (st *stage) fail(err error) {
	if st.err == nil {
		st.err = err
	}
}

// narrate appends a line to the schedule's narrative, stamped with the
// virtual time elapsed since the schedule began.
func (st *stage) narrate(format string, args ...any) {
	if st.err == nil {
		at := st.clock.Now().Sub(transport.VirtualEpoch)
		st.narrative = append(st.narrative, fmt.Sprintf("[+%v] ", at)+fmt.Sprintf(format, args...))
	}
}

// invoke lets one hop pass, records p's invocation and submits the
// operation, leaving it in flight; returned translates the future's result
// into the recorder's terms once it resolves.
func invoke[T any, F future[T]](st *stage, p types.ProcessID, kind history.OpKind, arg types.Value,
	submit func() (F, error), returned func(T) (types.Value, types.Timestamp)) *operation {
	st.clock.Schedule(hop, func() {})
	st.settle()
	op := &operation{}
	if st.err != nil {
		return op
	}
	op.id = st.rec.Invoke(p, kind, arg)
	f, err := submit()
	if err != nil {
		st.rec.Fail(op.id)
		st.fail(fmt.Errorf("adversary: %s by %s: %w", kind, p, err))
		return op
	}
	op.done = f.Done()
	op.resolve = func() error {
		res, err := f.Result(context.Background())
		if err == nil {
			op.value, op.ts = returned(res)
		}
		return err
	}
	st.inflight = append(st.inflight, op)
	return op
}

// settle steps the clock until no event remains: every message that can be
// delivered has been, every handler it woke has run and every future it
// completed is resolved — recorded here at the virtual instant of the
// delivery that completed it. Held messages are not events, so an operation
// the schedule keeps incomplete stays pending without stalling the stage.
// This replaces polling server state for "the message has been processed".
func (st *stage) settle() {
	for ran := true; ran && st.err == nil; {
		var err error
		if ran, err = st.clock.Step(); err != nil {
			st.fail(err)
			return
		}
		kept := st.inflight[:0]
		for _, op := range st.inflight {
			select {
			case <-op.done:
				op.returned = true
				if err := op.resolve(); err != nil {
					st.rec.Fail(op.id)
					st.fail(fmt.Errorf("adversary: operation %d failed: %w", op.id, err))
				} else {
					st.rec.Return(op.id, op.value, op.ts)
				}
			default:
				kept = append(kept, op)
			}
		}
		st.inflight = kept
	}
}

// complete settles the stage and insists that op has returned.
func (st *stage) complete(op *operation, what string) {
	if st.settle(); !op.returned {
		st.fail(fmt.Errorf("adversary: %s did not complete", what))
	}
}

// The constructions deploy through fastread.NewStore like everything else,
// under drivers of their own: the fast protocols' factories with the
// deployment-shape check relaxed to quorum.Config.Validate — the whole point
// is to run the paper's algorithm at and beyond its bound — and, for
// ReaderNaive, the strawman reader in place of the paper's.
func init() {
	for _, base := range []string{"fast", "fast-byz"} {
		for _, kind := range []ReaderKind{ReaderPaper, ReaderNaive} {
			d, ok := driver.Lookup(base)
			if !ok {
				panic("adversary: driver " + base + " not registered")
			}
			d.Name = base + "-unbounded-" + kind.String()
			d.Validate = quorum.Config.Validate
			if kind == ReaderNaive {
				d.NewReader = naiveReaderFor
			}
			driver.Register(d)
		}
	}
}

// deploy starts cfg's deployment on the stage's clock by sim.Run's own
// recipe (sim.Replayable), so there is no scheduling freedom and no
// wall-clock input anywhere in the run, and returns it with the network the
// schedule holds and releases links on. The listed servers are malicious:
// they lose their memory towards reader r1.
func (st *stage) deploy(cfg quorum.Config, kind ReaderKind, malicious []types.ProcessID) (*fastread.Store, *transport.InMemNetwork, error) {
	base := "fast"
	if len(malicious) > 0 {
		base = "fast-byz"
	}
	faulty := make(map[int]fastread.ByzantineBehavior, len(malicious))
	for _, s := range malicious {
		faulty[s.Index] = fastread.ByzantineMemoryLoss
	}
	scfg, net := sim.Replayable(fastread.Config{
		Servers:   cfg.Servers,
		Faulty:    cfg.Faulty,
		Malicious: cfg.Malicious,
		Readers:   cfg.Readers,
		Protocol:  fastread.Protocol(base + "-unbounded-" + kind.String()),
		Byzantine: faulty,
	}, st.clock, transport.WithDefaultDelay(hop))
	store, err := fastread.NewStore(scfg)
	return store, net, err
}
