// Package sim is the deterministic simulation harness: a declarative
// scenario DSL (workload shape plus a timed fault script), a virtual-time
// runner that executes a scenario against any registered protocol driver
// with every operation recorded, a seed-sweeping explorer that checks the
// resulting histories against the paper's correctness conditions, and a
// shrinker that reduces a failing run to a minimal reproducer.
//
// Everything is driven by fastread's virtual clock
// (transport.VirtualClock): network deliveries, workload submissions, fault
// injections and per-operation timeouts are all logical-clock events
// executed one at a time on a single driver goroutine, so a "60-second"
// chaos scenario runs in well under a second of wall time and the same
// (scenario, seed) pair reproduces a byte-identical history every run. No
// code on a simulation's path may consult the wall clock or sleep. Every
// consumer — server handler, client completion — runs inside the clock event
// that delivers to it, on the driver goroutine, so no work outlives its
// event, and a delivery that no consumer takes inside its event is a Step
// error instead of nondeterminism.
package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"fastread/internal/atomicity"
)

// FaultKind names one kind of timed fault injection.
type FaultKind string

const (
	// FaultIsolate partitions a server away from every other process:
	// messages to and from it are dropped (not queued) until FaultReconnect.
	// Paired with a reconnect it models a crash-restart of a server whose
	// state lives only in memory.
	FaultIsolate FaultKind = "isolate"
	// FaultReconnect undoes FaultIsolate for the server.
	FaultReconnect FaultKind = "reconnect"
	// FaultCrash crash-stops a server permanently (the crash model's
	// failure): an isolation that is never reconnected. At most Faulty
	// servers should ever be crashed.
	FaultCrash FaultKind = "crash"
	// FaultHold suspends delivery on every link between the server and the
	// deployment's clients: messages sent while held are queued in transit.
	FaultHold FaultKind = "hold"
	// FaultRelease delivers (in order) everything held for the server and
	// resumes normal delivery — the burst is the interesting part.
	FaultRelease FaultKind = "release"
	// FaultDropHeld discards everything held for the server and resumes
	// delivery; the dropped messages stay "in transit forever".
	FaultDropHeld FaultKind = "drop-held"
	// FaultRestartReader replaces a reader's protocol client with a fresh
	// incarnation (new nonce, empty observed state) for the event's Key (or
	// every key when Key is empty). In-flight operations of the old
	// incarnation are aborted deterministically before the swap.
	FaultRestartReader FaultKind = "restart-reader"
	// FaultRestartServer crash-stops a server and immediately starts a new
	// incarnation of it (Store.RestartServer). With Scenario.Durable set the
	// new incarnation recovers the old one's write-ahead log — crashed at
	// whatever offset the fsync policy had made durable — so the fault
	// explores recovery correctness, not just outage tolerance. Without
	// Durable the incarnation rejoins amnesiac, which is only sound inside
	// quorum-overlap bounds the scenario must respect.
	FaultRestartServer FaultKind = "restart-server"
)

// FaultEvent is one timed entry of a scenario's fault script.
type FaultEvent struct {
	// At is the virtual time the fault fires, measured from the run's start.
	At time.Duration `json:"at"`
	// Kind selects the fault.
	Kind FaultKind `json:"kind"`
	// Server is the 1-based server index targeted by the server faults.
	Server int `json:"server,omitempty"`
	// Reader is the 1-based reader index targeted by restart-reader.
	Reader int `json:"reader,omitempty"`
	// Key restricts restart-reader to one register; empty means every key.
	Key string `json:"key,omitempty"`
}

// Scenario is a declarative simulation: a deployment shape, a steady
// workload, and a fault script. It is JSON-serializable so a failing run can
// be replayed from the command line verbatim.
type Scenario struct {
	// Name identifies the scenario in reports and replay commands.
	Name string `json:"name"`
	// Protocol is the driver registry name ("fast", "fast-byz", "abd",
	// "maxmin", "regular", or test drivers like "sim-buggy").
	Protocol string `json:"protocol"`
	// Servers, Faulty, Malicious and Readers shape the deployment (S, t, b,
	// R).
	Servers   int `json:"servers"`
	Faulty    int `json:"faulty"`
	Malicious int `json:"malicious,omitempty"`
	Readers   int `json:"readers"`
	// Keys is the number of independent registers driven concurrently.
	Keys int `json:"keys"`
	// Depth is the per-handle pipeline depth; submissions beyond it are
	// skipped (never blocked — blocking would deadlock the event loop).
	Depth int `json:"depth"`
	// Delay and Jitter shape the network: every delivery takes Delay plus a
	// seeded-random extra in [0, Jitter).
	Delay  time.Duration `json:"delay"`
	Jitter time.Duration `json:"jitter"`
	// Duration is how long (in virtual time) the workload keeps submitting.
	Duration time.Duration `json:"duration"`
	// WriteGap and ReadGap are the virtual periods between successive write
	// (per key) and read (per key per reader) submissions.
	WriteGap time.Duration `json:"writeGap"`
	ReadGap  time.Duration `json:"readGap"`
	// OpTimeout bounds every operation in virtual time; an operation still
	// pending when it fires is aborted and recorded as failed.
	OpTimeout time.Duration `json:"opTimeout"`
	// Byzantine maps 1-based server indices to behaviour names
	// ("forge-timestamp", "stale-replay", "memory-loss", "inflate-seen",
	// "mute", "flood"); the listed servers run malicious implementations.
	Byzantine map[int]string `json:"byzantine,omitempty"`
	// Faults is the timed fault script.
	Faults []FaultEvent `json:"faults,omitempty"`
	// ExpectAllComplete, when true, makes operation timeouts count as a
	// failure: the scenario promises every submitted operation can finish
	// (faults never starve a quorum for longer than OpTimeout).
	ExpectAllComplete bool `json:"expectAllComplete"`
	// FrozenNonce replaces the virtual-clock nonce source with a constant —
	// the deliberately-wrong configuration that reintroduces the
	// restarted-reader starvation bug, kept as a knob so the fixture that
	// guards against it can demonstrate it still bites.
	FrozenNonce bool `json:"frozenNonce,omitempty"`
	// Durable, when non-nil, runs every server with a write-ahead log in a
	// per-run temporary directory, so restart-server faults recover real
	// persisted state. The runner forces SimulateCrash (restarts model
	// machine crashes: the active segment truncates to its last-fsynced
	// offset) and disables background snapshots (their trigger goroutine is
	// wall-clock-driven, which a deterministic run cannot contain).
	Durable *DurableSpec `json:"durable,omitempty"`
}

// DurableSpec opts a scenario's servers into durability (see
// Scenario.Durable).
type DurableSpec struct {
	// Fsync is the flush policy: "always" (nothing acknowledged is lost —
	// every restart recovers full state) or "never" (the active segment is
	// lost on crash — restarts are amnesiac about their unsealed tail).
	// Empty means "always". "interval" is rejected by the runner: its flush
	// ticker is wall-clock-driven, so it cannot appear in a deterministic
	// run.
	Fsync string `json:"fsync,omitempty"`
	// SegmentBytes rotates log segments early (sealed segments survive a
	// simulated crash even under "never", so small segments make recovery
	// replay multi-segment logs mid-scenario); 0 keeps the 4MiB default,
	// which a short scenario never fills.
	SegmentBytes int64 `json:"segmentBytes,omitempty"`
}

// WithDefaults fills unset workload fields with usable values.
func (sc Scenario) WithDefaults() Scenario {
	if sc.Protocol == "" {
		sc.Protocol = "fast"
	}
	if sc.Keys <= 0 {
		sc.Keys = 1
	}
	if sc.Depth <= 0 {
		sc.Depth = 4
	}
	if sc.Duration <= 0 {
		sc.Duration = 2 * time.Second
	}
	if sc.WriteGap <= 0 {
		sc.WriteGap = 40 * time.Millisecond
	}
	if sc.ReadGap <= 0 {
		sc.ReadGap = 25 * time.Millisecond
	}
	if sc.OpTimeout <= 0 {
		sc.OpTimeout = 2 * time.Second
	}
	return sc
}

// KeyName returns the i-th register name of a scenario (0-based).
func KeyName(i int) string { return fmt.Sprintf("k%02d", i) }

// checkFunc selects the per-key history checker matching the protocol's
// guarantee: regularity for the regular register, the four single-writer
// atomicity conditions for everything else.
func (sc Scenario) checkFunc() atomicity.CheckFunc {
	if sc.Protocol == "regular" {
		return atomicity.CheckRegular
	}
	return atomicity.CheckSWMR
}

// MarshalJSONCompact renders the scenario as one-line JSON for replay
// commands.
func (sc Scenario) MarshalJSONCompact() string {
	data, err := json.Marshal(sc)
	if err != nil {
		return fmt.Sprintf("{%q: %q}", "error", err.Error())
	}
	return string(data)
}

// ParseScenario decodes a scenario from its JSON form.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return Scenario{}, fmt.Errorf("sim: parse scenario: %w", err)
	}
	return sc, nil
}

// Template is a named, seed-parameterized scenario generator: the seed
// shapes the fault schedule (which servers, when, for how long) as well as
// the network jitter, so a seed sweep explores genuinely different
// adversarial schedules of the same scenario family.
type Template struct {
	// Name is the template's stable identifier (also the generated
	// scenario's Name).
	Name string
	// Gen builds the concrete scenario for one seed.
	Gen func(seed int64) Scenario
}

// Templates returns the built-in scenario families swept by default. Every
// generated scenario keeps the deployment inside the protocol's fault
// bounds, so any history violation found by a sweep is a genuine bug, not a
// misconfigured deployment.
func Templates() []Template {
	return []Template{
		{Name: "partition-pipelined-writes", Gen: genPartitionPipelinedWrites},
		{Name: "restart-storm", Gen: genRestartStorm},
		{Name: "byz-flood", Gen: genByzFlood},
		{Name: "hold-release-burst", Gen: genHoldReleaseBurst},
		{Name: "crash-quorum-edge", Gen: genCrashQuorumEdge},
		{Name: "restart-recover", Gen: genRestartRecover},
		{Name: "jitter-chaos", Gen: genJitterChaos},
		{Name: "maxmin-gossip-jitter", Gen: genMaxminGossipJitter},
	}
}

// TemplateByName finds a built-in template (including the long acceptance
// variant and the pinned fixtures, which are not part of the default sweep).
func TemplateByName(name string) (Template, bool) {
	for _, t := range Templates() {
		if t.Name == name {
			return t, true
		}
	}
	for _, t := range extraTemplates() {
		if t.Name == name {
			return t, true
		}
	}
	return Template{}, false
}

// TemplateNames lists the default sweep's template names.
func TemplateNames() []string {
	ts := Templates()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// extraTemplates are addressable by name but excluded from the default
// sweep: the 60-second acceptance scenario, the deliberately-buggy canary,
// and the pinned regression fixtures.
func extraTemplates() []Template {
	extras := []Template{
		{Name: "restart-storm-long", Gen: genRestartStormLong},
		{Name: "buggy-canary", Gen: func(int64) Scenario { return CanaryScenario() }},
	}
	for _, fx := range Fixtures() {
		fx := fx
		extras = append(extras, Template{Name: fx.Name, Gen: func(int64) Scenario { return fx }})
	}
	return extras
}

// genPartitionPipelinedWrites partitions one server at a time (never more
// than t=1 concurrently) while deep write pipelines are in flight. The
// quorum S−t stays reachable throughout, so every operation must complete
// AND every history must stay atomic.
func genPartitionPipelinedWrites(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name: "partition-pipelined-writes", Protocol: "fast",
		Servers: 5, Faulty: 1, Readers: 2, Keys: 2, Depth: 4,
		Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
		Duration: 3 * time.Second, WriteGap: 40 * time.Millisecond, ReadGap: 25 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		ExpectAllComplete: true,
	}
	at := 200*time.Millisecond + time.Duration(rng.Intn(100))*time.Millisecond
	for at < sc.Duration-300*time.Millisecond {
		s := 1 + rng.Intn(sc.Servers)
		window := time.Duration(100+rng.Intn(200)) * time.Millisecond
		sc.Faults = append(sc.Faults,
			FaultEvent{At: at, Kind: FaultIsolate, Server: s},
			FaultEvent{At: at + window, Kind: FaultReconnect, Server: s},
		)
		at += window + time.Duration(50+rng.Intn(150))*time.Millisecond
	}
	return sc
}

// restartStorm builds the rolling isolate/restart-reader/reconnect schedule
// shared by the default and the long acceptance variant.
func restartStorm(seed int64, duration time.Duration) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name: "restart-storm", Protocol: "fast",
		Servers: 5, Faulty: 1, Readers: 2, Keys: 2, Depth: 4,
		Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
		Duration: duration, WriteGap: 100 * time.Millisecond, ReadGap: 60 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		ExpectAllComplete: true,
	}
	at := 300 * time.Millisecond
	for at < sc.Duration-500*time.Millisecond {
		s := 1 + rng.Intn(sc.Servers)
		window := time.Duration(150+rng.Intn(250)) * time.Millisecond
		sc.Faults = append(sc.Faults,
			FaultEvent{At: at, Kind: FaultIsolate, Server: s},
			FaultEvent{At: at + window/2, Kind: FaultRestartReader, Reader: 1 + rng.Intn(sc.Readers)},
			FaultEvent{At: at + window, Kind: FaultReconnect, Server: s},
		)
		at += window + time.Duration(200+rng.Intn(300))*time.Millisecond
	}
	return sc
}

func genRestartStorm(seed int64) Scenario { return restartStorm(seed, 4*time.Second) }

// genRestartStormLong is the acceptance scenario: a full simulated minute of
// restart storms and partitions that must finish in under a second of wall
// time with byte-identical same-seed histories.
func genRestartStormLong(seed int64) Scenario {
	sc := restartStorm(seed, 60*time.Second)
	sc.Name = "restart-storm-long"
	return sc
}

// genByzFlood runs the arbitrary-failure register with one flooding
// malicious server inside its proven bound S > (R+2)t + (R+1)b, so safety
// and liveness must both survive the fabricated-ack bursts.
func genByzFlood(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name: "byz-flood", Protocol: "fast-byz",
		Servers: 6, Faulty: 1, Malicious: 1, Readers: 1, Keys: 1, Depth: 4,
		Delay: 200 * time.Microsecond, Jitter: 400 * time.Microsecond,
		Duration: 2500 * time.Millisecond, WriteGap: 50 * time.Millisecond, ReadGap: 30 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		Byzantine:         map[int]string{1 + rng.Intn(6): "flood"},
		ExpectAllComplete: true,
	}
	return sc
}

// genHoldReleaseBurst holds all client links of one server and later
// releases (or occasionally drops) the queued traffic in one burst —
// maximal reordering and backlog pressure on the demux routes.
func genHoldReleaseBurst(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name: "hold-release-burst", Protocol: "fast",
		Servers: 5, Faulty: 1, Readers: 2, Keys: 2, Depth: 6,
		Delay: 100 * time.Microsecond, Jitter: 200 * time.Microsecond,
		Duration: 3 * time.Second, WriteGap: 35 * time.Millisecond, ReadGap: 20 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		ExpectAllComplete: true,
	}
	at := 250 * time.Millisecond
	for at < sc.Duration-400*time.Millisecond {
		s := 1 + rng.Intn(sc.Servers)
		window := time.Duration(80+rng.Intn(200)) * time.Millisecond
		end := FaultRelease
		if rng.Intn(4) == 0 {
			end = FaultDropHeld // messages in transit forever; quorum S−t survives
		}
		sc.Faults = append(sc.Faults,
			FaultEvent{At: at, Kind: FaultHold, Server: s},
			FaultEvent{At: at + window, Kind: end, Server: s},
		)
		at += window + time.Duration(100+rng.Intn(200))*time.Millisecond
	}
	return sc
}

// genCrashQuorumEdge crash-stops exactly t servers at staggered times,
// leaving the deployment on its quorum edge: the surviving S−t servers are
// exactly an ack quorum, so every later operation needs all of them.
func genCrashQuorumEdge(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name: "crash-quorum-edge", Protocol: "abd",
		Servers: 5, Faulty: 2, Readers: 2, Keys: 1, Depth: 4,
		Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
		Duration: 2500 * time.Millisecond, WriteGap: 45 * time.Millisecond, ReadGap: 30 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		ExpectAllComplete: true,
	}
	// Two distinct victims, crashed in order at seeded times.
	first := 1 + rng.Intn(sc.Servers)
	second := 1 + rng.Intn(sc.Servers-1)
	if second >= first {
		second++
	}
	sc.Faults = append(sc.Faults,
		FaultEvent{At: time.Duration(400+rng.Intn(400)) * time.Millisecond, Kind: FaultCrash, Server: first},
		FaultEvent{At: time.Duration(1200+rng.Intn(600)) * time.Millisecond, Kind: FaultCrash, Server: second},
	)
	return sc
}

// genRestartRecover crashes and restarts DURABLE servers mid-workload, so
// write-ahead-log recovery (snapshot + tail replay + incarnation bump) runs
// inside a checked run rather than only in unit tests. Seed parity selects
// which durability regime the sweep explores:
//
//   - Even seeds run fsync=always with a rolling storm of restarts: every
//     acknowledged write is on disk before its ack, so ANY number of
//     crash-restarts must preserve both atomicity and liveness.
//
//   - Odd seeds run fsync=never, where a crash loses the active (unsealed,
//     never-synced) segment — the "crash between append and fsync" window at
//     its widest. Amnesia is only sound inside quorum overlap: the scenario
//     runs ABD on S=6 (majority quorums of 4 intersect in ≥2 servers) and
//     restarts a SINGLE seeded victim, twice, so every acknowledged write
//     survives in at least one non-wiped server of every quorum
//     intersection. Small segments force rotation, so recovery still
//     replays the sealed multi-segment prefix the crash could not take.
func genRestartRecover(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name: "restart-recover", Protocol: "abd",
		Servers: 5, Faulty: 1, Readers: 2, Keys: 2, Depth: 4,
		Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
		Duration: 3 * time.Second, WriteGap: 40 * time.Millisecond, ReadGap: 25 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		ExpectAllComplete: true,
		Durable:           &DurableSpec{Fsync: "always", SegmentBytes: 8 << 10},
	}
	if seed%2 != 0 {
		sc.Servers, sc.Faulty = 6, 2
		sc.Durable = &DurableSpec{Fsync: "never", SegmentBytes: 4 << 10}
		victim := 1 + rng.Intn(sc.Servers)
		sc.Faults = append(sc.Faults,
			FaultEvent{At: time.Duration(600+rng.Intn(400)) * time.Millisecond, Kind: FaultRestartServer, Server: victim},
			FaultEvent{At: time.Duration(1700+rng.Intn(500)) * time.Millisecond, Kind: FaultRestartServer, Server: victim},
		)
		return sc
	}
	at := 300*time.Millisecond + time.Duration(rng.Intn(200))*time.Millisecond
	for at < sc.Duration-400*time.Millisecond {
		sc.Faults = append(sc.Faults,
			FaultEvent{At: at, Kind: FaultRestartServer, Server: 1 + rng.Intn(sc.Servers)},
		)
		at += time.Duration(250+rng.Intn(250)) * time.Millisecond
	}
	return sc
}

// genJitterChaos runs the regular register under jitter much larger than
// the base delay with deep pipelines — pure reordering chaos, no faults.
// Checked against regularity (new/old inversions are legal here).
func genJitterChaos(seed int64) Scenario {
	return Scenario{
		Name: "jitter-chaos", Protocol: "regular",
		Servers: 4, Faulty: 1, Readers: 3, Keys: 2, Depth: 8,
		Delay: 100 * time.Microsecond, Jitter: 3 * time.Millisecond,
		Duration: 2500 * time.Millisecond, WriteGap: 25 * time.Millisecond, ReadGap: 15 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		ExpectAllComplete: true,
	}
}

// genMaxminGossipJitter runs the decentralised max-min register (servers
// gossip with each other before replying) under heavy jitter, so the
// inter-server gossip rounds interleave arbitrarily with client traffic.
// No faults: the scenario exists to stress the protocol with the most
// reorderings, not to starve it.
func genMaxminGossipJitter(seed int64) Scenario {
	return Scenario{
		Name: "maxmin-gossip-jitter", Protocol: "maxmin",
		Servers: 5, Faulty: 2, Readers: 2, Keys: 1, Depth: 4,
		Delay: 200 * time.Microsecond, Jitter: 2 * time.Millisecond,
		Duration: 2 * time.Second, WriteGap: 60 * time.Millisecond, ReadGap: 40 * time.Millisecond,
		OpTimeout:         2 * time.Second,
		ExpectAllComplete: true,
	}
}
