package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fastread/internal/quorum"
	"fastread/internal/types"
)

func seenAck(server int, members ...types.ProcessID) SeenAck {
	return SeenAck{Server: types.Server(server), Seen: types.NewProcessSet(members...)}
}

func TestPredicateCompleteWriteScenario(t *testing.T) {
	// S=4, t=1, R=1: after a complete write followed by a read, every server
	// in S1∩S2 (size ≥ S−2t = 2) has both w and the reader in seen. The
	// predicate must hold with a=2 (Lemma 3 case z=k).
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	acks := []SeenAck{
		seenAck(1, types.Writer(), types.Reader(1)),
		seenAck(2, types.Writer(), types.Reader(1)),
		seenAck(3, types.Writer(), types.Reader(1)),
	}
	res, err := EvaluatePredicate(cfg, acks)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("predicate should hold after a complete write: %+v", res)
	}
	if res.Level > 2 {
		t.Errorf("expected witness level ≤ 2, got %d", res.Level)
	}
}

func TestPredicateIncompleteWriteOnlyWriterSeen(t *testing.T) {
	// S=4, t=1, R=1. An incomplete write reached only one server; the reader
	// got maxTS from that single server. |MS| = 1 < S−t = 3 for a=1 and
	// 1 < S−2t = 2 for a=2, so the predicate must NOT hold.
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	acks := []SeenAck{
		seenAck(1, types.Writer(), types.Reader(1)),
	}
	res, err := EvaluatePredicate(cfg, acks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatalf("predicate should not hold for a single maxTS message: %+v", res)
	}
}

func TestPredicateAllAcksAtWrittenBackTimestamp(t *testing.T) {
	// Lemma 2 situation: the reader wrote back ts=x and every one of the S−t
	// acks carries ts=x with the reader in seen, so a=1 must succeed.
	cfg := quorum.Config{Servers: 5, Faulty: 1, Readers: 2}
	acks := []SeenAck{
		seenAck(1, types.Reader(2)),
		seenAck(2, types.Reader(2)),
		seenAck(3, types.Reader(2), types.Writer()),
		seenAck(4, types.Reader(2), types.Reader(1)),
	}
	res, err := EvaluatePredicate(cfg, acks)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds || res.Level != 1 {
		t.Fatalf("predicate should hold with a=1: %+v", res)
	}
	if !res.Witness.Has(types.Reader(2)) {
		t.Errorf("witness %v should contain r2", res.Witness)
	}
}

func TestPredicateRequiresEnoughSupportAtEachLevel(t *testing.T) {
	// S=10, t=2, R=2 (max level 3). Thresholds: a=1→8, a=2→6, a=3→4.
	cfg := quorum.Config{Servers: 10, Faulty: 2, Readers: 2}

	// 5 messages all containing {w, r1}: a=2 needs 6, a=1 needs 8 → fails.
	var five []SeenAck
	for i := 1; i <= 5; i++ {
		five = append(five, seenAck(i, types.Writer(), types.Reader(1)))
	}
	res, err := EvaluatePredicate(cfg, five)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatalf("5 messages with a 2-client intersection should fail (needs 6): %+v", res)
	}

	// 6 messages with {w, r1} → a=2 holds.
	six := append(five, seenAck(6, types.Writer(), types.Reader(1)))
	res, err = EvaluatePredicate(cfg, six)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds || res.Level != 2 {
		t.Fatalf("6 messages with a 2-client intersection should hold at a=2: %+v", res)
	}

	// 4 messages with {w, r1, r2} → a=3 holds even though a=1,2 fail.
	var four []SeenAck
	for i := 1; i <= 4; i++ {
		four = append(four, seenAck(i, types.Writer(), types.Reader(1), types.Reader(2)))
	}
	res, err = EvaluatePredicate(cfg, four)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds || res.Level != 3 {
		t.Fatalf("4 messages with a 3-client intersection should hold at a=3: %+v", res)
	}
}

func TestPredicateByzantineThresholds(t *testing.T) {
	// S=8, t=1, b=1, R=1: thresholds a=1→7 (S−t), a=2→5 (S−2t−b).
	cfg := quorum.Config{Servers: 8, Faulty: 1, Malicious: 1, Readers: 1}
	var acks []SeenAck
	for i := 1; i <= 5; i++ {
		acks = append(acks, seenAck(i, types.Writer(), types.Reader(1)))
	}
	res, err := EvaluatePredicate(cfg, acks)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds || res.Level != 2 {
		t.Fatalf("5 messages should satisfy the Byzantine a=2 threshold of 5: %+v", res)
	}
	// With only 4 it must fail (4 < 5 and 4 < 7).
	res, err = EvaluatePredicate(cfg, acks[:4])
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatalf("4 messages should not satisfy any Byzantine threshold: %+v", res)
	}
}

func TestPredicateIgnoresIllegitimateClients(t *testing.T) {
	// Malicious servers stuff their seen sets with servers and out-of-range
	// readers; those must not help the predicate.
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	acks := []SeenAck{
		seenAck(1, types.Server(2), types.Reader(9)),
		seenAck(2, types.Server(2), types.Reader(9)),
		seenAck(3, types.Server(2), types.Reader(9)),
	}
	res, err := EvaluatePredicate(cfg, acks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatalf("fictitious clients must not satisfy the predicate: %+v", res)
	}
}

func TestPredicateEmptyInputs(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 1}
	res, err := EvaluatePredicate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("empty ack list should not satisfy the predicate")
	}
	res, err = EvaluatePredicate(cfg, []SeenAck{seenAck(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("acks with empty seen sets should not satisfy the predicate")
	}
}

func TestPredicateInvalidConfig(t *testing.T) {
	_, err := EvaluatePredicate(quorum.Config{Servers: 0}, []SeenAck{seenAck(1, types.Writer())})
	if err == nil {
		t.Error("invalid config should error")
	}
}

func TestPredicateUnionTooLarge(t *testing.T) {
	cfg := quorum.Config{Servers: 200, Faulty: 1, Readers: 60}
	members := make([]types.ProcessID, 0, MaxPredicateUnion+2)
	for i := 1; i <= MaxPredicateUnion+2; i++ {
		members = append(members, types.Reader(i))
	}
	acks := []SeenAck{{Server: types.Server(1), Seen: types.NewProcessSet(members...)}}
	_, err := EvaluatePredicate(cfg, acks)
	if !errors.Is(err, ErrPredicateTooLarge) {
		t.Errorf("err = %v, want ErrPredicateTooLarge", err)
	}
}

func TestPredicateMonotoneInSupport(t *testing.T) {
	// Adding another message carrying the same seen set can never turn a
	// holding predicate into a failing one.
	cfg := quorum.Config{Servers: 7, Faulty: 1, Readers: 3}
	base := []SeenAck{
		seenAck(1, types.Writer(), types.Reader(1)),
		seenAck(2, types.Writer(), types.Reader(1)),
		seenAck(3, types.Writer(), types.Reader(2)),
		seenAck(4, types.Writer()),
		seenAck(5, types.Writer(), types.Reader(1)),
		seenAck(6, types.Writer(), types.Reader(3)),
	}
	resBase, err := EvaluatePredicate(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if !resBase.Holds {
		t.Fatalf("base predicate should hold (a=1 with w in all 6 ≥ S−t=6): %+v", resBase)
	}
	extended := append(append([]SeenAck(nil), base...), seenAck(7, types.Writer(), types.Reader(1), types.Reader(2)))
	resExt, err := EvaluatePredicate(cfg, extended)
	if err != nil {
		t.Fatal(err)
	}
	if !resExt.Holds {
		t.Errorf("adding a message broke a holding predicate: %+v", resExt)
	}
}

// evaluatePredicateBruteForce is the reference implementation: it literally
// enumerates every subset MS of the messages and checks the paper's
// condition, returning the least a for which it holds (0 when it does not).
// Exponential in the number of messages; test-only sizes.
func evaluatePredicateBruteForce(cfg quorum.Config, acks []SeenAck) int {
	n := len(acks)
	maxLevel := cfg.MaxPredicateLevel()
	least := 0
	for subset := 1; subset < 1<<n; subset++ {
		var inter types.ProcessSet
		count := 0
		for i := 0; i < n; i++ {
			if subset&(1<<i) == 0 {
				continue
			}
			legit := types.NewProcessSet()
			for p := range acks[i].Seen {
				if isLegitimateClient(p, cfg.Readers) {
					legit.Add(p)
				}
			}
			if count == 0 {
				inter = legit
			} else {
				inter = inter.Intersect(legit)
			}
			count++
		}
		for a := 1; a <= maxLevel && (least == 0 || a < least); a++ {
			threshold := cfg.PredicateThreshold(a)
			if threshold < 1 {
				threshold = 1
			}
			if count >= threshold && inter.Len() >= a {
				least = a
			}
		}
	}
	return least
}

// evaluateSeens is the reader-side adapter as Reader.finish spells it: each
// seen set as the mask an acknowledgement carries, restricted to the
// legitimate clients, into a reused scratch.
func evaluateSeens(s *predicateScratch, cfg quorum.Config, seens [][]types.ProcessID) (level int, err error) {
	legit := types.Clients(cfg.Readers)
	s.reset()
	for _, seen := range seens {
		s.add(types.ClientMaskOf(seen...) & legit)
	}
	level, _, _, err = s.decide(cfg)
	return level, err
}

// TestPredicateMatchesBruteForce cross-checks the lattice walk against the
// literal definition on random small instances with R ∈ [1, 8]: same
// decision, and the reported level is the least one.
func TestPredicateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1500; trial++ {
		cfg := quorum.Config{
			Servers: 4 + rng.Intn(12),
			Faulty:  1 + rng.Intn(2),
			Readers: 1 + rng.Intn(8),
		}
		if rng.Intn(2) == 0 {
			cfg.Malicious = rng.Intn(cfg.Faulty + 1)
		}
		density := 1 + rng.Intn(4) // members present with probability density/5
		n := rng.Intn(9)
		acks := make([]SeenAck, 0, n)
		for i := 0; i < n; i++ {
			seen := types.NewProcessSet()
			if rng.Intn(5) < density {
				seen.Add(types.Writer())
			}
			for r := 1; r <= cfg.Readers; r++ {
				if rng.Intn(5) < density {
					seen.Add(types.Reader(r))
				}
			}
			acks = append(acks, SeenAck{Server: types.Server(i + 1), Seen: seen})
		}
		got, err := EvaluatePredicate(cfg, acks)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := evaluatePredicateBruteForce(cfg, acks)
		if got.Holds != (want != 0) || got.Level != want {
			t.Fatalf("trial %d: cfg=%v acks=%v: lattice=(%v, %d) brute level=%d", trial, cfg, acks, got.Holds, got.Level, want)
		}
	}
}

// Property: if the predicate holds, the reported witness really is contained
// in at least Support messages and Support meets the threshold for Level.
func TestPredicateWitnessIsSound(t *testing.T) {
	cfg := quorum.Config{Servers: 9, Faulty: 2, Readers: 2}
	f := func(masks []uint8) bool {
		clients := []types.ProcessID{types.Writer(), types.Reader(1), types.Reader(2)}
		if len(masks) > 7 {
			masks = masks[:7]
		}
		acks := make([]SeenAck, 0, len(masks))
		for i, m := range masks {
			seen := types.NewProcessSet()
			for bit, c := range clients {
				if m&(1<<bit) != 0 {
					seen.Add(c)
				}
			}
			acks = append(acks, SeenAck{Server: types.Server(i + 1), Seen: seen})
		}
		res, err := EvaluatePredicate(cfg, acks)
		if err != nil {
			return false
		}
		if !res.Holds {
			return true
		}
		if res.Witness.Len() < res.Level || res.Level < 1 || res.Level > cfg.MaxPredicateLevel() {
			return false
		}
		support := 0
		for _, a := range acks {
			if a.Seen.ContainsAll(types.NewProcessSet(res.Witness.Members()...)) {
				support++
			}
		}
		threshold := cfg.PredicateThreshold(res.Level)
		return support == res.Support && support >= threshold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPredicateScratchMatchesEvaluate pins that the kernel's two adapters
// agree — the reader's slice-fed reused scratch and the map-fed one-shot
// EvaluatePredicate — on randomized instances: same Holds decision and same
// witnessing level, including inputs with duplicate seen entries and
// illegitimate clients, and across scratch reuse.
func TestPredicateScratchMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch predicateScratch // reused across all cases, like a reader's
	for trial := 0; trial < 2000; trial++ {
		cfg := quorum.Config{
			Servers: 4 + rng.Intn(10),
			Faulty:  1 + rng.Intn(2),
			Readers: 1 + rng.Intn(4),
		}
		if rng.Intn(3) == 0 {
			cfg.Malicious = rng.Intn(cfg.Faulty + 1)
		}
		if cfg.Validate() != nil {
			continue
		}
		nAcks := 1 + rng.Intn(cfg.Servers)
		acks := make([]SeenAck, nAcks)
		seens := make([][]types.ProcessID, nAcks)
		for i := range acks {
			var seen []types.ProcessID
			if rng.Intn(2) == 0 {
				seen = append(seen, types.Writer())
			}
			for r := 1; r <= cfg.Readers+1; r++ { // +1: sometimes illegitimate
				if rng.Intn(2) == 0 {
					seen = append(seen, types.Reader(r))
				}
			}
			if len(seen) > 0 && rng.Intn(3) == 0 {
				seen = append(seen, seen[0]) // duplicate entry
			}
			if rng.Intn(5) == 0 {
				seen = append(seen, types.Server(1)) // never legitimate
			}
			acks[i] = SeenAck{Server: types.Server(i + 1), Seen: types.NewProcessSet(seen...)}
			// The scratch path consumes raw (possibly duplicated) slices.
			seens[i] = seen
		}

		want, err := EvaluatePredicate(cfg, acks)
		if err != nil {
			t.Fatalf("EvaluatePredicate: %v", err)
		}
		level, err := evaluateSeens(&scratch, cfg, seens)
		if err != nil {
			t.Fatalf("evaluateSeens: %v", err)
		}
		if level != want.Level || want.Holds != (level != 0) {
			t.Fatalf("trial %d (%+v): scratch level = %d, EvaluatePredicate = (%v, %d)\nacks: %v",
				trial, cfg, level, want.Holds, want.Level, acks)
		}
	}
}

// FuzzPredicate is the differential check of the lattice walk against the
// literal definition. The input decodes to a deployment (S ≤ 24, t, b, R ≤ 8)
// and up to 12 acknowledgements of two bytes each: bits 0-9 select w, r1..r9
// (r9 is never legitimate, and neither are r(R+1)..r8), bit 10 adds a server
// id, bit 11 repeats the first member. Both adapters must report exactly the
// least level the brute force finds.
func FuzzPredicate(f *testing.F) {
	shape := []byte{18, 1, 0, 8}                                               // S=19 t=1 b=0 R=8
	f.Add(append(shape[:4:4], 0xff, 0x01, 0xff, 0x01, 0xff, 0x01, 0xff, 0x01)) // all identical
	f.Add(append(shape[:4:4], 0x01, 0, 0x03, 0, 0x07, 0, 0x0f, 0, 0x1f, 0))    // nested chain
	f.Add(append(shape[:4:4], 0x03, 0, 0x05, 0, 0x06, 0, 0x18, 0, 0x28, 0x09)) // pairwise incomparable
	f.Add(append(shape[:4:4], 0, 0, 0, 0, 0, 0x04))                            // empty and illegitimate-only seen sets
	f.Add([]byte{5, 2, 1, 3, 0x0f, 0x0c, 0x0f, 0x08, 0x07, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := quorum.Config{Servers: 1 + int(data[0])%24, Readers: int(data[3]) % 9}
		cfg.Faulty = int(data[1]) % (cfg.Servers + 1)
		cfg.Malicious = int(data[2]) % (cfg.Faulty + 1)
		data = data[4:]
		var acks []SeenAck
		var seens [][]types.ProcessID
		for ; len(data) >= 2 && len(acks) < 12; data = data[2:] {
			bitsOf := int(data[0]) | int(data[1])<<8
			var seen []types.ProcessID
			if bitsOf&1 != 0 {
				seen = append(seen, types.Writer())
			}
			for r := 1; r <= 9; r++ {
				if bitsOf&(1<<r) != 0 {
					seen = append(seen, types.Reader(r))
				}
			}
			if bitsOf&(1<<10) != 0 {
				seen = append(seen, types.Server(1+len(acks)))
			}
			if bitsOf&(1<<11) != 0 && len(seen) > 0 {
				seen = append(seen, seen[0])
			}
			acks = append(acks, SeenAck{Server: types.Server(1 + len(acks)), Seen: types.NewProcessSet(seen...)})
			seens = append(seens, seen)
		}
		want := evaluatePredicateBruteForce(cfg, acks)
		got, err := EvaluatePredicate(cfg, acks)
		if err != nil {
			t.Fatalf("EvaluatePredicate(%v, %v): %v", cfg, acks, err)
		}
		if got.Holds != (want != 0) || got.Level != want {
			t.Fatalf("%v acks=%v: EvaluatePredicate = (%v, %d), brute-force level %d", cfg, acks, got.Holds, got.Level, want)
		}
		var scratch predicateScratch
		if level, err := evaluateSeens(&scratch, cfg, seens); err != nil || level != want {
			t.Fatalf("%v seens=%v: reader adapter = (%d, %v), brute-force level %d", cfg, seens, level, err, want)
		}
	})
}

// predicateBenchInput is one named set of maxTS seen slices for the
// reader-side adapter.
type predicateBenchInput struct {
	name  string
	seens [][]types.ProcessID
}

// predicateBenchInputs are the reader-side adapter's three regimes at
// S=19 t=1 R=16: identical is the steady state (and the benchreport cell's
// input): all 18 acknowledgements carry the full 17-client seen set; diverse
// is 18 random seen sets at the given density; maximal is the crafted
// worst case — the 16 complements of a single client plus 2 full sets close
// to all 2^16 subsets and no level ever holds, so nothing ends the walk early.
func predicateBenchInputs() (quorum.Config, []predicateBenchInput) {
	cfg := quorum.Config{Servers: 19, Faulty: 1, Readers: 16}
	clients := []types.ProcessID{types.Writer()}
	for r := 1; r <= cfg.Readers; r++ {
		clients = append(clients, types.Reader(r))
	}
	identical := predicateBenchInput{name: "identical_r16"}
	for i := 0; i < 18; i++ {
		identical.seens = append(identical.seens, clients)
	}
	inputs := []predicateBenchInput{identical}
	rng := rand.New(rand.NewSource(16))
	for _, density := range []int{50, 80, 95} {
		diverse := predicateBenchInput{name: fmt.Sprintf("diverse_r16/density=%d", density)}
		for i := 0; i < 18; i++ {
			var seen []types.ProcessID
			for _, c := range clients {
				if rng.Intn(100) < density {
					seen = append(seen, c)
				}
			}
			diverse.seens = append(diverse.seens, seen)
		}
		inputs = append(inputs, diverse)
	}
	maximal := predicateBenchInput{name: "maximal_u16"}
	sixteen := clients[:16]
	for skip := range sixteen {
		seen := append([]types.ProcessID(nil), sixteen[:skip]...)
		maximal.seens = append(maximal.seens, append(seen, sixteen[skip+1:]...))
	}
	maximal.seens = append(maximal.seens, sixteen, sixteen)
	return cfg, append(inputs, maximal)
}

// BenchmarkPredicate times one reader-side evaluation on a warmed scratch.
func BenchmarkPredicate(b *testing.B) {
	cfg, inputs := predicateBenchInputs()
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			var scratch predicateScratch
			b.ReportAllocs()
			for b.Loop() {
				if _, err := evaluateSeens(&scratch, cfg, in.seens); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPredicateSteadyStateAllocatesNothing guards the reader's hot path: on
// a warmed scratch neither the all-identical input nor diverging seen sets
// allocate. It also runs the crafted lattice-maximal input once for its
// decision; BenchmarkPredicate/maximal_u16 is that input's cost, expected to
// stay ≤ 10 ms (2^16 closed sets × 17 distinct masks, with O(1) dedupe — a
// linear-scan dedupe would make it quadratic).
func TestPredicateSteadyStateAllocatesNothing(t *testing.T) {
	cfg, inputs := predicateBenchInputs()
	for _, in := range inputs {
		var scratch predicateScratch
		level, err := evaluateSeens(&scratch, cfg, in.seens) // warms the scratch
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		switch in.name {
		case "maximal_u16":
			if level != 0 {
				t.Errorf("maximal_u16: level = %d, want the predicate not to hold", level)
			}
			continue
		case "identical_r16":
			if level != 1 || scratch.marks != nil {
				t.Errorf("identical_r16: level = %d (want 1), dedupe bitmap sized = %v (want untouched)", level, scratch.marks != nil)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = evaluateSeens(&scratch, cfg, in.seens) }); allocs != 0 {
			t.Errorf("%s: %v allocs per evaluation on a warmed scratch, want 0", in.name, allocs)
		}
	}
}
