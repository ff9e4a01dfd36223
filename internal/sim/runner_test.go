package sim

import (
	"strings"
	"sync"
	"testing"
	"time"

	"fastread/internal/atomicity"
	"fastread/internal/driver"
	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/wire"
)

// panicProtocolName is a test driver: the fast protocol's clients over
// servers whose handler panics on the first write it sees.
const panicProtocolName = "sim-panic"

const panicMessage = "sim-panic: server handler panicked on a write"

var panicOnce sync.Once

func registerPanicDriver() {
	panicOnce.Do(func() {
		d, ok := driver.Lookup("fast")
		if !ok {
			panic("sim: fast driver not registered")
		}
		d.Name = panicProtocolName
		d.NewServer = driver.ServerFactory(func(cfg driver.ServerConfig, node transport.Node) (*protoutil.Shell[struct{}], error) {
			return protoutil.NewShell(cfg, node, protoutil.Protocol[struct{}]{
				Name:     panicProtocolName,
				NewState: func() struct{} { return struct{}{} },
				Handle: func(_ transport.Message, req *wire.Message, _ transport.Sender) {
					if req.Op == wire.OpWrite {
						panic(panicMessage)
					}
				},
			})
		})
		driver.Register(d)
	})
}

// TestRunSurfacesAHandlerPanic: a server handler that panics under the
// virtual clock ends the run with the panic and its stack as the run's
// error. Before, the deferred store Close waited on a server executor that
// the unwound clock event still owned, so Run hung and the panic was never
// printed.
func TestRunSurfacesAHandlerPanic(t *testing.T) {
	registerPanicDriver()
	sc := Scenario{
		Name: "handler-panic", Protocol: panicProtocolName,
		Servers: 4, Faulty: 1, Readers: 1, Keys: 1, Depth: 1,
		Delay: 100 * time.Microsecond, Duration: 30 * time.Millisecond,
		WriteGap: 10 * time.Millisecond, ReadGap: 10 * time.Millisecond, OpTimeout: time.Second,
	}
	done := make(chan *Result, 1)
	go func() { done <- Run(sc, 1) }()
	var res *Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sim.Run did not return within 10 s of a server handler's panic")
	}
	summary := res.FailureSummary()
	if !res.Failed() || !strings.Contains(summary, panicMessage) {
		t.Fatalf("FailureSummary() = %q, want a harness error naming the panic", summary)
	}
	if !strings.Contains(summary, "runner_test.go") {
		t.Errorf("the run's error carries no stack through the panicking handler:\n%s", summary)
	}
}

// TestFailureSummary covers the summary's other branches: a history
// violation, lost liveness, and a clean run.
func TestFailureSummary(t *testing.T) {
	violated := atomicity.KeyedReport{Reports: map[string]atomicity.Report{
		"k1": {OK: true},
		"k0": {Violations: []atomicity.Violation{{Message: "stale read"}, {Message: "another"}}},
	}}
	for _, row := range []struct {
		name string
		res  Result
		want string
	}{
		{"history violation", Result{Check: violated}, "history violation: k0: stale read (2 violations)"},
		{"liveness", Result{Check: atomicity.KeyedReport{OK: true}, Ops: 9, TimedOut: 1, FailedOps: 2, EndAborts: 3},
			"liveness: 1 timed out, 2 failed, 3 unresolved (of 9 ops)"},
		{"ok", Result{Check: atomicity.KeyedReport{OK: true}, Ops: 9}, "ok"},
	} {
		if got := row.res.FailureSummary(); got != row.want {
			t.Errorf("%s: FailureSummary() = %q, want %q", row.name, got, row.want)
		}
	}
}
