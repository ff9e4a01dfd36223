package adversary

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"fastread/internal/history"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// fingerprint hashes everything a construction reports: every recorded
// operation with its virtual-time bounds, the rendered history and the
// narrative. Equal fingerprints mean byte-identical runs.
func fingerprint(narrative []string, histories ...history.History) string {
	h := sha256.New()
	for _, hist := range histories {
		for _, op := range hist {
			fmt.Fprintf(h, "%d|%s|%s|%q|%q|%d|%d|%d|%t|%t\n",
				op.ID, op.Process, op.Kind, op.Argument, op.Result, op.ResultTS,
				op.Invoked.Sub(transport.VirtualEpoch), op.Returned.Sub(transport.VirtualEpoch),
				op.Completed, op.Failed)
		}
		fmt.Fprint(h, hist.String())
	}
	for _, line := range narrative {
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestConstructionsReplay pins that a construction is a function of its
// arguments: every (configuration, reader) row experiments E2 and E4 run, and
// the E5 demonstrations, reproduce the same history, timestamps and narrative
// on every run and under every GOMAXPROCS, and four canonical rows reproduce
// the fingerprints recorded here. A control row (controlRow) shows the
// verdict is the schedule's.
func TestConstructionsReplay(t *testing.T) {
	type row struct {
		name string
		run  func() (string, error)
		want string // pinned fingerprint, when canonical
	}
	var rows []row
	construction := func(s, f, b, r int, kind ReaderKind, want string) {
		cfg := quorum.Config{Servers: s, Faulty: f, Malicious: b, Readers: r}
		rows = append(rows, row{
			name: fmt.Sprintf("%d/%d/%d/%d %s", s, f, b, r, kind),
			want: want,
			run: func() (string, error) {
				res, err := runSchedule(cfg, kind, b > 0, nil)
				return fingerprint(res.Narrative, res.History), err
			},
		})
	}
	// E2's rows (both readers each), the first three canonical. At 4/1/0/2
	// both readers produce the same run: the schedule breaks them alike.
	construction(4, 1, 0, 2, ReaderPaper, "9fb6650931c65171")
	construction(4, 1, 0, 2, ReaderNaive, "9fb6650931c65171")
	construction(7, 1, 0, 2, ReaderPaper, "87afd4e484b489ac")
	construction(7, 1, 0, 2, ReaderNaive, "")
	for _, c := range [][3]int{{5, 1, 3}, {10, 2, 3}, {6, 2, 2}, {13, 2, 4}, {9, 1, 4}, {8, 2, 2}} {
		construction(c[0], c[1], 0, c[2], ReaderPaper, "")
		construction(c[0], c[1], 0, c[2], ReaderNaive, "")
	}
	// E4's rows, the smallest at-the-bound one canonical.
	construction(7, 1, 1, 2, ReaderPaper, "89a890dab9bfa73c")
	for _, c := range [][4]int{{9, 1, 1, 2}, {9, 1, 1, 3}, {12, 1, 1, 3}, {11, 2, 1, 2}, {13, 2, 1, 2}} {
		construction(c[0], c[1], c[2], c[3], ReaderPaper, "")
	}
	// E5's demonstrations.
	for _, s := range []int{3, 5} {
		cfg := quorum.Config{Servers: s, Faulty: (s - 1) / 2, Readers: 3}
		rows = append(rows, row{
			name: fmt.Sprintf("mwmr S=%d", s),
			run: func() (string, error) {
				res, err := RunMWMRDemonstration(cfg)
				return fingerprint(res.Narrative, res.NaiveHistory, res.ABDHistory), err
			},
		})
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seen := make(map[string]string, len(rows))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, r := range rows {
			for i := 0; i < 2; i++ {
				got, err := r.run()
				if err != nil {
					t.Fatalf("%s (GOMAXPROCS %d): %v", r.name, procs, err)
				}
				if first, ok := seen[r.name]; ok && got != first {
					t.Errorf("%s (GOMAXPROCS %d, run %d): fingerprint %s, first run gave %s", r.name, procs, i, got, first)
				}
				seen[r.name] = got
			}
		}
	}
	for _, r := range rows {
		if r.want != "" && seen[r.name] != r.want {
			t.Errorf("%s: fingerprint %s, pinned %s", r.name, seen[r.name], r.want)
		}
	}
	t.Run("control", controlRow)
}

// controlRow shows the verdict comes from the schedule and not from the
// stage: at S=4, t=1, R=2 — beyond the bound, where the schedule breaks both
// readers — the same schedule with the writer's held messages released
// before step 5 (so the write completes everywhere) violates nothing.
func controlRow(t *testing.T) {
	cfg := quorum.Config{Servers: 4, Faulty: 1, Readers: 2}
	completeWrite := func(net *transport.InMemNetwork) {
		for i := 1; i <= cfg.Servers; i++ {
			net.Release(types.Writer(), types.Server(i))
		}
	}
	for _, kind := range []ReaderKind{ReaderPaper, ReaderNaive} {
		broken, err := runSchedule(cfg, kind, false, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		control, err := runSchedule(cfg, kind, false, completeWrite)
		if err != nil {
			t.Fatalf("%v control: %v", kind, err)
		}
		if !broken.Violation {
			t.Errorf("%v: the schedule itself should violate atomicity beyond the bound", kind)
		}
		if control.Violation || control.FirstReaderTS != 1 {
			t.Errorf("%v control: violation=%v, r1's final read ts=%d; want none and 1\nnarrative: %v\n%s",
				kind, control.Violation, control.FirstReaderTS, control.Narrative, control.History)
		}
		if writes := control.History.CompletedWrites(); len(writes) != 1 {
			t.Errorf("%v control: the released write should have completed, history:\n%s", kind, control.History)
		}
	}
}
