package experiments

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fastread/internal/sim"
)

// TestPaperTables pins the repository's statement of the paper's results: all
// eight experiments, rendered as cmd/fastbench -markdown renders them, are
// REPRODUCTION.md byte for byte, on every run and under every GOMAXPROCS. The
// file is only ever written by
//
//	go run ./cmd/fastbench -markdown > REPRODUCTION.md
func TestPaperTables(t *testing.T) {
	want, err := os.ReadFile("../../REPRODUCTION.md")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var got bytes.Buffer
		if err := Render(&got, All(), true); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i, line := range gotLines {
			if i >= len(wantLines) || line != wantLines[i] {
				t.Fatalf("GOMAXPROCS %d: the tables differ from REPRODUCTION.md at line %d:\n got  %s\n(if the change is meant: go run ./cmd/fastbench -markdown > REPRODUCTION.md)", procs, i+1, line)
			}
		}
		t.Fatalf("GOMAXPROCS %d: REPRODUCTION.md has %d lines, the tables %d", procs, len(wantLines), len(gotLines))
	}
}

// TestRunRefusesAShrunkTable: a scenario whose read gap is shorter than a read
// (2Δ) at pipeline depth 1 skips submissions, and run reports that instead of
// returning a result with fewer operations than the table claims.
func TestRunRefusesAShrunkTable(t *testing.T) {
	sc := sim.Scenario{
		Name: "mis-sized", Protocol: "fast", Servers: 4, Faulty: 1, Readers: 1, Depth: 1,
		Duration: 20 * delta, WriteGap: 10 * delta, ReadGap: delta,
	}
	if _, err := run(sc, 1); err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("run accepted a scenario that skips submissions: %v", err)
	}
	sc.ReadGap = 4 * delta
	if res, err := run(sc, 1); err != nil || res.Stats.Reads != 5 {
		t.Fatalf("well-sized scenario: %v, %+v", err, res)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("registry has %d experiments, want 8", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("ByID(%s) not found", e.ID)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID accepted an unknown id")
	}
	if len(IDs()) != 8 {
		t.Error("IDs() length mismatch")
	}
}

func TestE1FastReadsUnderCrash(t *testing.T) {
	tables, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	tbl := tables[0]
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want the six shapes", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// rounds/read and rounds/write must be exactly 1, every operation of
		// the shape must have completed (60 writes, 80 reads per reader) and
		// atomic must be yes.
		if row[6] != "1" || row[7] != "1" {
			t.Errorf("rounds/read = %q, rounds/write = %q, want 1 and 1 (row %v)", row[6], row[7], row)
		}
		if readers, _ := strconv.Atoi(row[2]); row[3] != "60" || row[4] != strconv.Itoa(80*readers) || row[5] != row[1] {
			t.Errorf("writes/reads/crashes = %s/%s/%s, want 60, 80 per reader and t (row %v)", row[3], row[4], row[5], row)
		}
		if row[8] != "yes" {
			t.Errorf("atomic = %q, want yes (row %v)", row[8], row)
		}
	}
}

func TestE2CrashLowerBound(t *testing.T) {
	tables, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "✓" {
			t.Errorf("row does not match the paper's prediction: %v", row)
		}
	}
}

func TestE3Byzantine(t *testing.T) {
	tables, err := RunE3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 6 {
		t.Fatalf("rows = %d, want the six attacks", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if readers, _ := strconv.Atoi(row[3]); row[5] != "40" || row[6] != strconv.Itoa(60*readers) || row[7] != "1" {
			t.Errorf("writes/reads/rounds = %s/%s/%s, want 40, 60 per reader and 1 (row %v)", row[5], row[6], row[7], row)
		}
		if row[8] != "no" {
			t.Errorf("a forged value was returned: %v", row)
		}
		if row[9] != "yes" {
			t.Errorf("history not atomic under attack: %v", row)
		}
	}
}

func TestE4ByzantineLowerBound(t *testing.T) {
	tables, err := RunE4()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "✓" {
			t.Errorf("row does not match the paper's prediction: %v", row)
		}
	}
}

func TestE5MWMR(t *testing.T) {
	tables, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows)%2 != 0 || len(rows) == 0 {
		t.Fatalf("expected paired rows, got %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		naive, abd := rows[i], rows[i+1]
		if naive[5] != "no" {
			t.Errorf("naive fast MWMR unexpectedly linearizable: %v", naive)
		}
		if abd[5] != "yes" {
			t.Errorf("ABD MWMR unexpectedly non-linearizable: %v", abd)
		}
		if abd[4] != "first-writer" {
			t.Errorf("ABD read returned %q, want the later write", abd[4])
		}
	}
}

func TestE6Thresholds(t *testing.T) {
	tables, err := RunE6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	if len(tables[0].Rows) == 0 || len(tables[1].Rows) == 0 {
		t.Fatal("empty tables")
	}
	for _, row := range tables[1].Rows {
		if row[len(row)-1] != "✓" {
			t.Errorf("boundary row does not match prediction: %v", row)
		}
	}
}

// TestE7Latency asserts the paper's latency claim as an equality, in message
// delays: with no jitter every read of a row takes the same time, 2Δ for fast
// and regular, 3Δ for max-min, 4Δ for ABD, at every deployment size.
func TestE7Latency(t *testing.T) {
	tables, err := RunE7()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"fast": "2Δ", "regular": "2Δ", "maxmin": "3Δ", "abd": "4Δ"}
	rows := tables[0].Rows
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 4 sizes × 4 protocols", len(rows))
	}
	for _, row := range rows {
		for _, cell := range row[5:8] { // read min, p50, max
			if cell != want[row[3]] {
				t.Errorf("S=%s %s: read latency %s, want exactly %s (row %v)", row[0], row[3], cell, want[row[3]], row)
			}
		}
		if row[9] != "yes" {
			t.Errorf("protocol %s history flagged: %v", row[3], row)
		}
	}
}

// TestE8ReadsMustWrite: a fast read mutates every server (exactly S mutations
// per read) inside its one round; an ABD read pays one extra round instead;
// regular reads leave nothing behind — a measured zero, because the regular
// servers' mutations ARE counted: the write's are in the same row.
func TestE8ReadsMustWrite(t *testing.T) {
	tables, err := RunE8()
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string][]string{}
	for _, row := range tables[0].Rows {
		byProto[row[0]] = row
		if row[3] != row[1] {
			t.Errorf("%s: the write mutated %s servers, want all S=%s (row %v)", row[0], row[3], row[1], row)
		}
	}
	if len(byProto) != 4 {
		t.Fatalf("rows = %v, want fast, abd, maxmin and regular", tables[0].Rows)
	}
	if fast := byProto["fast"]; fast[6] != fast[1] || fast[7] != "1" {
		t.Errorf("fast reads: %s mutations/read in %s rounds, want exactly S=%s in 1", fast[6], fast[7], fast[1])
	}
	if byProto["abd"][7] != "2" {
		t.Errorf("ABD reads take %s rounds, want one extra", byProto["abd"][7])
	}
	for _, proto := range []string{"maxmin", "regular"} {
		if row := byProto[proto]; row[5] != "0" || row[7] != "1" {
			t.Errorf("%s reads: %s mutations in %s rounds, want 0 in 1", proto, row[5], row[7])
		}
	}
}

func TestTablesRenderMarkdown(t *testing.T) {
	tables, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	md := tables[0].Markdown()
	if !strings.Contains(md, "| S |") && !strings.Contains(md, "| S | t |") {
		t.Errorf("markdown missing header:\n%s", md)
	}
}

func TestOptionsHelpers(t *testing.T) {
	if yesNo(true) != "yes" || yesNo(false) != "no" {
		t.Error("yesNo wrong")
	}
	if checkMark(true) != "✓" || checkMark(false) != "✗" {
		t.Error("checkMark wrong")
	}
	if formatRatio(2, 0) != "n/a" {
		t.Error("formatRatio division by zero not guarded")
	}
	if got := inDelta(2 * delta); got != "2Δ" {
		t.Errorf("inDelta(2Δ) = %q", got)
	}
	if got := inDelta(delta*5/2 + delta/100); got != "2.51Δ" {
		t.Errorf("inDelta(2.51Δ) = %q", got)
	}
}
