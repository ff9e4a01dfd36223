package sim

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestFingerprintsGolden pins replay across commits and schedulers: seeds 1–4
// of every template, run at GOMAXPROCS 1 and 8, must reproduce the
// fingerprints in testdata/fingerprints.txt ("template seed fingerprint" per
// line). A change that moves a fingerprint on purpose replaces the file with
// the text this test prints on a mismatch.
func TestFingerprintsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		var got strings.Builder
		for _, job := range Jobs(Templates(), 4, 1) {
			res := Run(job.Scenario, job.Seed)
			if res.RunErr != nil {
				t.Errorf("GOMAXPROCS=%d %s seed %d: %v", procs, job.Template, job.Seed, res.RunErr)
			}
			fmt.Fprintf(&got, "%s %d %s\n", job.Template, job.Seed, res.Fingerprint())
		}
		runtime.GOMAXPROCS(prev)
		if got.String() != string(want) {
			t.Errorf("GOMAXPROCS=%d: fingerprints differ from testdata/fingerprints.txt; the run produced:\n%s", procs, got.String())
		}
	}
}
