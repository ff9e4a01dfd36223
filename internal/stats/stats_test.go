package stats

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLatencyRecorderSummary(t *testing.T) {
	r := NewLatencyRecorder(10)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
	s := r.Summary()
	if s.Count != 100 {
		t.Errorf("Summary.Count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Mean < 50*time.Millisecond || s.Mean > 51*time.Millisecond {
		t.Errorf("Mean = %v, want ~50.5ms", s.Mean)
	}
	if s.Median < 50*time.Millisecond || s.Median > 51*time.Millisecond {
		t.Errorf("Median = %v", s.Median)
	}
	if s.P95 < 94*time.Millisecond || s.P95 > 96*time.Millisecond {
		t.Errorf("P95 = %v", s.P95)
	}
	if s.Stddev == 0 {
		t.Error("Stddev should be non-zero")
	}
	if !strings.Contains(s.String(), "n=100") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestEmptySummary(t *testing.T) {
	var r LatencyRecorder
	s := r.Summary()
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if s.String() != "no samples" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestMerge(t *testing.T) {
	a := NewLatencyRecorder(0)
	b := NewLatencyRecorder(0)
	a.Record(time.Millisecond)
	b.Record(3 * time.Millisecond)
	a.Merge(b)
	a.Merge(nil)
	if a.Count() != 2 {
		t.Errorf("Count after merge = %d", a.Count())
	}
}

func TestPercentileEdges(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Error("percentile of empty should be 0")
	}
	s := []time.Duration{10, 20, 30, 40}
	if Percentile(s, 0) != 10 || Percentile(s, 100) != 40 {
		t.Error("0th/100th percentile wrong")
	}
	if Percentile(s, -5) != 10 || Percentile(s, 120) != 40 {
		t.Error("out-of-range percentiles should clamp")
	}
	mid := Percentile(s, 50)
	if mid < 20 || mid > 30 {
		t.Errorf("50th percentile = %v", mid)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		lo := float64(p1 % 101)
		hi := float64(p2 % 101)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Percentile(samples, lo) <= Percentile(samples, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Read latency", "protocol", "S", "mean", "p99")
	tbl.AddRow("fast", 4, 1.5, 200*time.Microsecond)
	tbl.AddRow("abd", 4, 3.0, 410*time.Microsecond)
	tbl.AddNote("delay=%v per message", time.Millisecond)

	text := tbl.String()
	if !strings.Contains(text, "Read latency") || !strings.Contains(text, "fast") ||
		!strings.Contains(text, "abd") || !strings.Contains(text, "note:") {
		t.Errorf("text rendering missing content:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 6 {
		t.Errorf("expected at least 6 lines, got %d:\n%s", len(lines), text)
	}

	md := tbl.Markdown()
	if !strings.Contains(md, "| protocol | S | mean | p99 |") {
		t.Errorf("markdown header missing:\n%s", md)
	}
	if !strings.Contains(md, "| --- |") {
		t.Errorf("markdown separator missing:\n%s", md)
	}
	if !strings.Contains(md, "### Read latency") {
		t.Errorf("markdown title missing:\n%s", md)
	}
	if !strings.Contains(md, "*delay=1ms per message*") {
		t.Errorf("markdown note missing:\n%s", md)
	}
}

// TestTablePadsByRunes pins that plain-text alignment counts characters, not
// bytes: a multi-byte cell must not shorten its column's padding, nor a
// multi-byte title lengthen its rule.
func TestTablePadsByRunes(t *testing.T) {
	for _, tc := range []struct {
		title string
		cols  []string
		rows  [][]any
		want  string
	}{
		{
			title: "E7 — latency",
			cols:  []string{"read", "ok"},
			rows:  [][]any{{"2Δ", "✓"}, {"10ms", "−"}},
			want: "E7 — latency\n" +
				"============\n" +
				"read  ok\n" +
				"----  --\n" +
				"2Δ    ✓ \n" +
				"10ms  − \n",
		},
		{
			title: "ascii",
			cols:  []string{"a", "b"},
			rows:  [][]any{{"xyz", 1}},
			want:  "ascii\n=====\na    b\n---  -\nxyz  1\n",
		},
	} {
		tbl := NewTable(tc.title, tc.cols...)
		for _, r := range tc.rows {
			tbl.AddRow(r...)
		}
		if got := tbl.String(); got != tc.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", tc.title, got, tc.want)
		}
	}
}

func TestTableShortRowsRenderSafely(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("only-one")
	text := tbl.String()
	if !strings.Contains(text, "only-one") {
		t.Errorf("short row dropped:\n%s", text)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "only-one") {
		t.Errorf("short row dropped in markdown:\n%s", md)
	}
}

func TestFloatFormatting(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(2.0)
	tbl.AddRow(2.345)
	text := tbl.String()
	if !strings.Contains(text, "2\n") && !strings.Contains(text, "2 ") {
		t.Errorf("integral float not rendered as integer:\n%s", text)
	}
	if !strings.Contains(text, "2.35") {
		t.Errorf("fractional float not rounded to 2 places:\n%s", text)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(100, time.Second); got != 100 {
		t.Errorf("Throughput = %f", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Errorf("Throughput with zero elapsed = %f", got)
	}
	if got := Throughput(50, 500*time.Millisecond); got != 100 {
		t.Errorf("Throughput = %f, want 100", got)
	}
}

func TestIntHistogram(t *testing.T) {
	var h IntHistogram
	if h.String() != "empty" || h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("zero histogram misbehaves: %q count=%d", h.String(), h.Count())
	}
	for _, v := range []int{0, 1, 1, 3, -2} { // -2 clamps to 0
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Max() != 3 {
		t.Errorf("Max = %d, want 3", h.Max())
	}
	if got, want := h.Mean(), 1.0; got != want { // (0+1+1+3+0)/5
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got := h.String(); got != "0:2 1:2 3:1" {
		t.Errorf("String = %q", got)
	}

	var other IntHistogram
	other.Observe(5)
	h.Merge(&other)
	h.Merge(nil)
	if h.Count() != 6 || h.Max() != 5 {
		t.Errorf("after merge: count=%d max=%d", h.Count(), h.Max())
	}
}
