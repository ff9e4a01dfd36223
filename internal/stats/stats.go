// Package stats aggregates the measurements produced by workloads and
// experiments: operation latencies, round-trip counts and throughput, plus a
// small text-table renderer the experiment drivers fill and
// experiments.Render prints.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// LatencyRecorder accumulates individual operation latencies. It is not safe
// for concurrent use; each worker records into its own recorder and the
// results are merged.
type LatencyRecorder struct {
	samples []time.Duration
}

// NewLatencyRecorder returns an empty recorder with the given capacity hint.
func NewLatencyRecorder(capacityHint int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]time.Duration, 0, capacityHint)}
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.samples = append(r.samples, d)
}

// Merge appends all samples from other.
func (r *LatencyRecorder) Merge(other *LatencyRecorder) {
	if other == nil {
		return
	}
	r.samples = append(r.samples, other.samples...)
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Summary computes the distribution summary of the recorded samples.
func (r *LatencyRecorder) Summary() LatencySummary {
	return SummarizeDurations(r.samples)
}

// LatencySummary is a distribution summary of operation latencies.
type LatencySummary struct {
	Count  int
	Min    time.Duration
	Max    time.Duration
	Mean   time.Duration
	Median time.Duration
	P95    time.Duration
	P99    time.Duration
	Stddev time.Duration
}

// SummarizeDurations computes a LatencySummary from raw samples.
func SummarizeDurations(samples []time.Duration) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var sum float64
	for _, s := range sorted {
		sum += float64(s)
	}
	mean := sum / float64(len(sorted))
	var sq float64
	for _, s := range sorted {
		d := float64(s) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(sorted)))

	return LatencySummary{
		Count:  len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   time.Duration(mean),
		Median: Percentile(sorted, 50),
		P95:    Percentile(sorted, 95),
		P99:    Percentile(sorted, 99),
		Stddev: time.Duration(std),
	}
}

// Percentile returns the p-th percentile (0..100) of an ascending-sorted
// sample slice using nearest-rank interpolation.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// String renders the summary compactly.
func (s LatencySummary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.Median.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// Table is a simple column-aligned text table used to report experiment
// results. It renders both as aligned plain text and as GitHub Markdown.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-form footnote shown under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// widths computes the rendered width of each column, in characters (cells
// carry Δ, ✓ and −).
func (t *Table) widths() []int {
	w := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		w[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(w) {
				w[i] = max(w[i], utf8.RuneCountInString(cell))
			}
		}
	}
	return w
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", utf8.RuneCountInString(t.Title)))
		b.WriteByte('\n')
	}
	w := t.widths()
	writeRow := func(cells []string) {
		for i, width := range w {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", width-utf8.RuneCountInString(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured Markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		cells := make([]string, len(t.Columns))
		copy(cells, row)
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "*%s*\n", n)
		}
	}
	return b.String()
}

// IntHistogram tallies small non-negative integer observations — in-flight
// operation counts, batch sizes — exactly, one bucket per value. It is not
// safe for concurrent use; like LatencyRecorder, each worker records into
// its own histogram and the results are merged.
type IntHistogram struct {
	counts []int64
	total  int64
}

// Observe tallies one observation (negative values are clamped to 0).
func (h *IntHistogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	for len(h.counts) <= v {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
}

// Merge adds all of other's tallies.
func (h *IntHistogram) Merge(other *IntHistogram) {
	if other == nil {
		return
	}
	for v, c := range other.counts {
		if c == 0 {
			continue
		}
		for len(h.counts) <= v {
			h.counts = append(h.counts, 0)
		}
		h.counts[v] += c
		h.total += c
	}
}

// Count returns the number of observations.
func (h *IntHistogram) Count() int64 { return h.total }

// Mean returns the average observed value, or 0 with no observations.
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum int64
	for v, c := range h.counts {
		sum += int64(v) * c
	}
	return float64(sum) / float64(h.total)
}

// Max returns the largest observed value.
func (h *IntHistogram) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return 0
}

// String renders the non-empty buckets compactly: "0:3 1:12 2:40 ...".
func (h *IntHistogram) String() string {
	if h.total == 0 {
		return "empty"
	}
	var b strings.Builder
	first := true
	for v, c := range h.counts {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", v, c)
	}
	return b.String()
}

// Throughput converts an operation count and elapsed duration to ops/sec.
func Throughput(ops int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}
