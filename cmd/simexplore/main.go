// Command simexplore is the deterministic-simulation explorer: it sweeps
// scenario × seed grids through the virtual-time runner, checks every
// recorded history against the protocol's correctness conditions, and
// shrinks any failure to a minimal reproducer with a one-line replay
// command.
//
//	simexplore                          # sweep the built-in templates, 64 seeds each
//	simexplore -seeds 256 -parallel 8   # the CI smoke sweep
//	simexplore -scenario restart-storm -seed 17          # replay one cell
//	simexplore -seed 17 -scenario-json '{...}'           # replay a shrunken scenario
//	simexplore -canary                  # prove the pipeline catches a broken protocol
//
// Exit status: 0 when everything passed (or, with -canary, when the canary
// was caught and shrunk), 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fastread/internal/sim"

	_ "fastread" // register the protocol drivers
)

func main() {
	var (
		scenarios    = flag.String("scenarios", strings.Join(sim.TemplateNames(), ","), "comma-separated template names to sweep")
		seeds        = flag.Int("seeds", 64, "seeds per scenario template")
		seedBase     = flag.Int64("seed-base", 1, "first seed of the sweep")
		seed         = flag.Int64("seed", 1, "seed for single-run modes (-scenario, -scenario-json, -canary)")
		scenario     = flag.String("scenario", "", "replay one template at -seed instead of sweeping")
		scenarioJSON = flag.String("scenario-json", "", "replay an inline JSON scenario at -seed instead of sweeping")
		parallel     = flag.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS)")
		shrink       = flag.Bool("shrink", true, "shrink sweep failures to minimal reproducers")
		shrinkBudget = flag.Int("shrink-budget", 64, "max runs the shrinker may spend per failure")
		canary       = flag.Bool("canary", false, "run the deliberately-buggy canary: exit 0 iff its violation is caught and shrunk")
		verbose      = flag.Bool("v", false, "per-run progress output")
	)
	flag.Parse()

	switch {
	case *canary:
		os.Exit(runCanary(*seed, *shrinkBudget))
	case *scenarioJSON != "":
		sc, err := sim.ParseScenario([]byte(*scenarioJSON))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(replay(sc, *seed))
	case *scenario != "":
		t, ok := sim.TemplateByName(*scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (have: %s)\n", *scenario, strings.Join(sim.TemplateNames(), ", "))
			os.Exit(2)
		}
		os.Exit(replay(t.Gen(*seed), *seed))
	default:
		os.Exit(sweep(*scenarios, *seeds, *seedBase, *parallel, *shrink, *shrinkBudget, *verbose))
	}
}

// replay runs one (scenario, seed) cell and reports it; exit 1 when the run
// fails — a replayed reproducer failing again is the expected outcome, and
// the status makes it scriptable either way.
func replay(sc sim.Scenario, seed int64) int {
	res := sim.Run(sc, seed)
	fmt.Printf("%s seed=%d: %d ops (%d completed, %d timed out, %d skips), sim %v in wall %v, mailbox high-water %d\n",
		res.Scenario.Name, seed, res.Ops, res.Completed, res.TimedOut, res.SubmitSkips,
		res.SimTime.Round(time.Millisecond), res.Wall.Round(time.Millisecond), res.Stats.MailboxHighWater)
	fmt.Printf("fingerprint %s\n", res.Fingerprint())
	if res.Failed() {
		fmt.Printf("FAIL: %s\n", res.FailureSummary())
		return 1
	}
	fmt.Println("ok: all histories check out")
	return 0
}

// sweep fans the scenario × seed grid across workers.
func sweep(scenarioCSV string, seeds int, seedBase int64, parallel int, shrinkFailures bool, budget int, verbose bool) int {
	var templates []sim.Template
	for _, name := range strings.Split(scenarioCSV, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		t, ok := sim.TemplateByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (have: %s)\n", name, strings.Join(sim.TemplateNames(), ", "))
			return 2
		}
		templates = append(templates, t)
	}
	jobs := sim.Jobs(templates, seeds, seedBase)
	opts := sim.SweepOptions{Parallel: parallel}
	if verbose {
		opts.Progress = func(done, total, failures int) {
			if done%50 == 0 || done == total {
				fmt.Printf("  %d/%d runs, %d failures\n", done, total, failures)
			}
		}
	}
	fmt.Printf("sweeping %d scenarios × %d seeds = %d runs\n", len(templates), seeds, len(jobs))
	res := sim.Sweep(jobs, opts)
	fmt.Printf("%d runs, %d ops, %d histories checked, %d failures, wall %v\n",
		res.Jobs, res.Ops, res.CheckedKeys, len(res.Failures), res.Wall.Round(time.Millisecond))
	if len(res.Failures) == 0 {
		return 0
	}
	for i, f := range res.Failures {
		fmt.Printf("\nFAIL %s seed=%d: %s\n", f.Scenario.Name, f.Seed, f.FailureSummary())
		if !shrinkFailures || i >= 3 {
			fmt.Printf("  replay: %s\n", sim.ReplayCommand(f.Scenario, f.Seed))
			continue
		}
		sr := sim.Shrink(f.Scenario, f.Seed, budget)
		if sr.Final == nil {
			fmt.Printf("  (failure did not reproduce under shrinking; replaying the original)\n")
			fmt.Printf("  replay: %s\n", sim.ReplayCommand(f.Scenario, f.Seed))
			continue
		}
		fmt.Printf("  shrunk in %d runs: %d→%d faults, %v→%v duration\n",
			sr.Runs, len(sr.Original.Faults), len(sr.Minimal.Faults), sr.Original.Duration, sr.Minimal.Duration)
		fmt.Printf("  minimal failure: %s\n", sr.Final.FailureSummary())
		fmt.Printf("  replay: %s\n", sr.ReplayCommand())
	}
	return 1
}

// runCanary verifies the detection pipeline end to end against the
// deliberately-broken protocol: the violation must be found AND shrink to a
// smaller scenario that still fails.
func runCanary(seed int64, budget int) int {
	sc := sim.CanaryScenario()
	res := sim.Run(sc, seed)
	if !res.Failed() {
		fmt.Printf("CANARY NOT CAUGHT: the buggy protocol produced no detected violation (seed %d)\n", seed)
		return 1
	}
	fmt.Printf("canary caught: %s\n", res.FailureSummary())
	sr := sim.Shrink(sc, seed, budget)
	if sr.Final == nil {
		fmt.Println("CANARY SHRINK FAILED: minimal scenario no longer reproduces")
		return 1
	}
	fmt.Printf("shrunk in %d runs: %d→%d faults, %v→%v duration; minimal still fails: %s\n",
		sr.Runs, len(sr.Original.Faults), len(sr.Minimal.Faults),
		sr.Original.Duration, sr.Minimal.Duration, sr.Final.FailureSummary())
	fmt.Printf("replay: %s\n", sr.ReplayCommand())
	return 0
}
