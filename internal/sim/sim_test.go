package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestScenarioJSONRoundTrip verifies every template's expansion survives the
// replay serialization unchanged — the shrinker's replay commands depend on
// ParseScenario(MarshalJSONCompact(sc)) == sc.
func TestScenarioJSONRoundTrip(t *testing.T) {
	names := append(TemplateNames(),
		"restart-storm-long", "buggy-canary",
		"fixture-demux-burst-backlog", "fixture-delayed-reordering", "fixture-restarted-incarnation")
	for _, name := range names {
		tpl, ok := TemplateByName(name)
		if !ok {
			t.Fatalf("TemplateByName(%q) not found", name)
		}
		sc := tpl.Gen(3)
		parsed, err := ParseScenario([]byte(sc.MarshalJSONCompact()))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if !reflect.DeepEqual(parsed, sc) {
			t.Errorf("%s: JSON round-trip changed the scenario:\n got %+v\nwant %+v", name, parsed, sc)
		}
	}
}

func TestTemplateByNameUnknown(t *testing.T) {
	if _, ok := TemplateByName("no-such-template"); ok {
		t.Fatal("TemplateByName accepted an unknown name")
	}
}

// TestRunDeterministic is the core reproducibility claim: same scenario and
// seed → byte-identical history fingerprint; a different seed explores a
// genuinely different schedule.
func TestRunDeterministic(t *testing.T) {
	tpl, _ := TemplateByName("restart-storm")
	a := Run(tpl.Gen(5), 5)
	b := Run(tpl.Gen(5), 5)
	if a.Failed() {
		t.Fatalf("restart-storm seed 5 failed: %s", a.FailureSummary())
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same seed, different fingerprints:\n %s\n %s", fa, fb)
	}
	c := Run(tpl.Gen(6), 6)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced identical histories — the seed is not reaching the schedule")
	}
}

// TestResultStats: a run carries the store's counters taken at quiescence, so
// a table built from it states rounds and mutations exactly — one round per
// fast read, two per ABD read, and a fast read mutating every server.
func TestResultStats(t *testing.T) {
	for proto, rounds := range map[string]float64{"fast": 1, "abd": 2} {
		res := Run(Scenario{
			Name: "stats-" + proto, Protocol: proto, Servers: 5, Faulty: 1, Readers: 1,
			Delay: time.Millisecond, Duration: 100 * time.Millisecond, ExpectAllComplete: true,
		}, 1)
		if res.Failed() {
			t.Fatalf("%s: %s", proto, res.FailureSummary())
		}
		st := res.Stats
		if st.Reads == 0 || st.Writes == 0 || int(st.Reads+st.Writes) != res.Completed {
			t.Errorf("%s: Stats counts %d reads + %d writes, the run completed %d operations", proto, st.Reads, st.Writes, res.Completed)
		}
		if st.ReadRoundsPerOp != rounds || st.WriteRoundsPerOp != 1 {
			t.Errorf("%s: %v rounds per read and %v per write, want %v and 1", proto, st.ReadRoundsPerOp, st.WriteRoundsPerOp, rounds)
		}
		if want := 5 * st.Writes; proto == "abd" && st.ServerMutations != want {
			t.Errorf("abd: %d server mutations, want the %d writes on 5 servers each (%d)", st.ServerMutations, st.Writes, want)
		}
		if want := 5 * (st.Writes + st.Reads); proto == "fast" && st.ServerMutations != want {
			t.Errorf("fast: %d server mutations, want every operation on 5 servers each (%d)", st.ServerMutations, want)
		}
	}
}

// TestRestartStormLongAcceptance runs the 60-second restart storm: it must
// pass, simulate the full minute, run far faster than real time, and
// reproduce exactly.
func TestRestartStormLongAcceptance(t *testing.T) {
	tpl, ok := TemplateByName("restart-storm-long")
	if !ok {
		t.Fatal("restart-storm-long template missing")
	}
	a := Run(tpl.Gen(42), 42)
	if a.Failed() {
		t.Fatalf("restart-storm-long seed 42 failed: %s", a.FailureSummary())
	}
	if a.SimTime < 60*time.Second {
		t.Fatalf("simulated only %v, want ≥ 60s", a.SimTime)
	}
	if a.Wall*10 > a.SimTime {
		t.Fatalf("wall %v for sim %v — virtual time is not outrunning real time", a.Wall, a.SimTime)
	}
	if a.RestartAborts == 0 {
		t.Fatal("a 60s restart storm aborted no in-flight operations — the faults are not firing")
	}
	b := Run(tpl.Gen(42), 42)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("restart-storm-long is not reproducible at seed 42")
	}
}

// TestFixturesPass pins the three regression scenarios at their pinned seed.
func TestFixturesPass(t *testing.T) {
	for _, sc := range Fixtures() {
		res := Run(sc, FixtureSeed)
		if res.Failed() {
			t.Errorf("%s failed at the pinned seed: %s", sc.Name, res.FailureSummary())
		}
	}
}

// TestFrozenNonceFixtureFails proves the restarted-incarnation fixture still
// has teeth: reintroducing the frozen nonce source must starve restarted
// readers into timeouts.
func TestFrozenNonceFixtureFails(t *testing.T) {
	res := Run(RestartedIncarnationFrozen(), FixtureSeed)
	if !res.Failed() {
		t.Fatal("frozen-nonce variant passed — the stale-request guard or the fixture has gone soft")
	}
	if res.TimedOut == 0 {
		t.Fatalf("expected starvation timeouts, got: %s", res.FailureSummary())
	}
}

// TestCanaryCaughtAndShrunk drives the whole detection pipeline against the
// deliberately-buggy protocol: the violation must be found, the scenario
// must shrink, and the shrunken reproducer must still fail after a JSON
// round trip (exactly what the replay command does).
func TestCanaryCaughtAndShrunk(t *testing.T) {
	sc := CanaryScenario()
	res := Run(sc, 1)
	if !res.Failed() {
		t.Fatal("canary not caught: the buggy protocol produced no violation")
	}
	if res.Check.OK {
		t.Fatalf("canary failed for the wrong reason: %s", res.FailureSummary())
	}

	sr := Shrink(sc, 1, 64)
	if sr.Final == nil {
		t.Fatalf("shrinking lost the failure after %d runs", sr.Runs)
	}
	if len(sr.Minimal.Faults) >= len(sr.Original.Faults) {
		t.Errorf("shrinker kept all %d benign faults", len(sr.Original.Faults))
	}
	if cmd := sr.ReplayCommand(); !strings.Contains(cmd, "simexplore") {
		t.Errorf("replay command looks wrong: %q", cmd)
	}

	replayed, err := ParseScenario([]byte(sr.Minimal.MarshalJSONCompact()))
	if err != nil {
		t.Fatalf("minimal scenario does not serialize: %v", err)
	}
	if rr := Run(replayed, sr.Seed); !rr.Failed() {
		t.Fatal("minimal scenario no longer fails after a JSON round trip")
	}
}

// TestSweepSmoke sweeps every default template across a few seeds: all
// clean, totals populated, results in deterministic job order.
func TestSweepSmoke(t *testing.T) {
	jobs := Jobs(Templates(), 2, 1)
	res := Sweep(jobs, SweepOptions{})
	if res.Jobs != len(jobs) {
		t.Fatalf("ran %d of %d jobs", res.Jobs, len(jobs))
	}
	for _, f := range res.Failures {
		t.Errorf("%s seed=%d: %s", f.Scenario.Name, f.Seed, f.FailureSummary())
	}
	if res.Ops == 0 || res.CheckedKeys == 0 {
		t.Fatalf("sweep totals empty: %d ops, %d checked keys", res.Ops, res.CheckedKeys)
	}
}

// TestReplayCommandForms checks both renderings: template form for pristine
// expansions, inline JSON for anything modified.
func TestReplayCommandForms(t *testing.T) {
	tpl, _ := TemplateByName("restart-storm")
	if cmd := ReplayCommand(tpl.Gen(9), 9); !strings.Contains(cmd, "-scenario restart-storm -seed 9") {
		t.Errorf("pristine template should replay by name, got %q", cmd)
	}
	mod := tpl.Gen(9)
	mod.Depth = 1
	if cmd := ReplayCommand(mod, 9); !strings.Contains(cmd, "-scenario-json") {
		t.Errorf("modified scenario should replay as JSON, got %q", cmd)
	}
}
