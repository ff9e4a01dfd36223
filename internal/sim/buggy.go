package sim

import (
	"sync"
	"time"

	"fastread/internal/driver"
	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// BuggyProtocolName is the registry name of the deliberately-broken driver
// the explorer's canary sweeps: the fast protocol's servers and writer under
// a reader that returns the highest-timestamped value of its quorum but, on
// every third read of a handle, replays the FIRST result that handle ever
// computed — a textbook stale-read atomicity violation. The canary exists to
// prove the whole detection chain end to end: the sweep must catch the
// violation, the checker must name it, and the shrinker must reduce the
// failing scenario to a minimal reproducer. A sweep harness that cannot
// catch THIS driver is not testing anything.
const BuggyProtocolName = "sim-buggy"

var buggyOnce sync.Once

// RegisterBuggyDriver registers the canary driver (idempotently — the
// driver registry panics on duplicates). Run calls it automatically for
// scenarios whose Protocol is BuggyProtocolName.
func RegisterBuggyDriver() {
	buggyOnce.Do(func() {
		d, ok := driver.Lookup("fast")
		if !ok {
			panic("sim: fast driver not registered (import fastread)")
		}
		d.Name = BuggyProtocolName
		d.NewReader = newBuggyReader
		driver.Register(d)
	})
}

// newBuggyReader is the bug as a round description, which is what the
// engine's extension point is for: ask, take the maximum, and corrupt every
// third result. Finish runs under the handle's mutex on the goroutine the
// runner's clock controls, so the corruption schedule is as deterministic as
// the run itself.
func newBuggyReader(cfg driver.ClientConfig, node transport.Node) (*protoutil.Reader, error) {
	// The first computed result, replayed forever.
	var (
		reads      int
		firstValue types.Value
		firstTS    types.Timestamp
	)
	return protoutil.NewReader(cfg, node, protoutil.Rounds[protoutil.ReadResult]{
		Name: "sim-buggy read", Need: cfg.Quorum.AckQuorum(),
		Begin: protoutil.Ask[protoutil.ReadResult](wire.OpRead, cfg.Key),
		Finish: func(c *protoutil.Call[protoutil.ReadResult], acks []protoutil.Ack) (bool, error) {
			ts, best, _ := protoutil.MaxTimestamp(acks)
			value := best.Msg.Cur
			if reads == 0 {
				firstValue, firstTS = value.Clone(), ts
			}
			if reads++; reads%3 == 0 {
				value, ts = firstValue, firstTS
			}
			c.Result = protoutil.ReadResult{Value: value.Clone(), Timestamp: ts, RoundTrips: 1}
			return false, nil
		},
	})
}

// CanaryScenario is the sweep the canary runs: a healthy fast-register
// deployment with a handful of benign partition faults (deliberately
// irrelevant to the bug, so the shrinker has something to strip) on top of
// the broken reader.
func CanaryScenario() Scenario {
	sc := Scenario{
		Name: "buggy-canary", Protocol: BuggyProtocolName,
		Servers: 5, Faulty: 1, Readers: 1, Keys: 1, Depth: 4,
		Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
		Duration: 1500 * time.Millisecond, WriteGap: 40 * time.Millisecond, ReadGap: 25 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		ExpectAllComplete: true,
	}
	for i := 0; i < 3; i++ {
		at := 250*time.Millisecond + time.Duration(i)*300*time.Millisecond
		s := 1 + i%sc.Servers
		sc.Faults = append(sc.Faults,
			FaultEvent{At: at, Kind: FaultIsolate, Server: s},
			FaultEvent{At: at + 120*time.Millisecond, Kind: FaultReconnect, Server: s},
		)
	}
	return sc
}
