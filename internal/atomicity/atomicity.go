// Package atomicity checks recorded histories against the register
// correctness conditions used in the paper:
//
//   - CheckSWMR verifies the four single-writer atomicity conditions of
//     Section 3.1 (the ones the paper's algorithms are proven to satisfy and
//     the ones the lower-bound constructions violate).
//   - CheckRegular verifies only regularity (conditions 1-3): a read may not
//     return a value older than the last write that completed before it
//     started, but concurrent reads may disagree.
//   - CheckLinearizable is a general multi-writer register linearizability
//     checker (Wing–Gong style search), used for the MWMR experiments of
//     Section 7.
//
// All checkers require distinct written values, which the workload generator
// guarantees; this is what lets a returned value be mapped back to the write
// that produced it.
package atomicity

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fastread/internal/history"
)

// valueKey encodes a register value for use as a comparison key inside the
// linearizability search. The initial value ⊥ is the empty key; written
// values get a prefix so that a written empty value cannot collide with ⊥.
func valueKey(v []byte, isBottom bool) string {
	if isBottom {
		return ""
	}
	return "v:" + string(v)
}

// Condition identifies which atomicity condition a violation refers to,
// numbered as in Section 3.1 of the paper.
type Condition int

const (
	// CondValidValue is condition (1): a read returns ⊥ or a written value.
	CondValidValue Condition = 1
	// CondReadAfterWrite is condition (2): a read that succeeds write_k
	// returns val_l with l ≥ k.
	CondReadAfterWrite Condition = 2
	// CondNoFutureRead is condition (3): a read returning val_k does not
	// precede write_k.
	CondNoFutureRead Condition = 3
	// CondReadMonotone is condition (4): reads that follow one another never
	// go back in time.
	CondReadMonotone Condition = 4
)

// Violation describes one way a history failed the check.
type Violation struct {
	Condition Condition
	Message   string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("condition %d violated: %s", v.Condition, v.Message)
}

// Report is the outcome of a check.
type Report struct {
	// OK is true when no violation was found.
	OK bool
	// Violations lists every detected violation.
	Violations []Violation
	// Reads and Writes count the completed operations examined.
	Reads  int
	Writes int
}

// String summarises the report.
func (r Report) String() string {
	if r.OK {
		return fmt.Sprintf("atomic: %d writes, %d reads, no violations", r.Writes, r.Reads)
	}
	s := fmt.Sprintf("NOT atomic: %d violations\n", len(r.Violations))
	for _, v := range r.Violations {
		s += "  " + v.String() + "\n"
	}
	return s
}

// ErrDuplicateWrites indicates the history wrote the same value twice, which
// the checkers cannot disambiguate.
var ErrDuplicateWrites = errors.New("atomicity: written values must be distinct")

// writeIndex maps every written value to its write index (1-based, in
// invocation order — the single writer invokes writes sequentially). The
// initial value ⊥ has index 0.
func writeIndex(writes []history.Operation) (map[string]int, error) {
	idx := make(map[string]int, len(writes))
	for i, w := range writes {
		key := string(w.Argument)
		if _, dup := idx[key]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateWrites, key)
		}
		idx[key] = i + 1
	}
	return idx, nil
}

// CheckSWMR verifies the four atomicity conditions of Section 3.1 for a
// single-writer history.
func CheckSWMR(h history.History) (Report, error) {
	return checkSW(h, true)
}

// CheckRegular verifies only regularity (conditions 1-3), the guarantee
// provided by the regular register (driver "regular", registered by
// internal/abd).
func CheckRegular(h history.History) (Report, error) {
	return checkSW(h, false)
}

func checkSW(h history.History, requireMonotoneReads bool) (Report, error) {
	writes := h.Writes()
	reads := h.Reads()
	valueToIndex, err := writeIndex(writes)
	if err != nil {
		return Report{}, err
	}

	report := Report{OK: true, Reads: len(reads), Writes: len(writes)}
	addViolation := func(c Condition, format string, args ...any) {
		report.OK = false
		report.Violations = append(report.Violations, Violation{Condition: c, Message: fmt.Sprintf(format, args...)})
	}

	// Index of the value each read returned; -1 marks unknown values.
	readIndex := make([]int, len(reads))
	for i, rd := range reads {
		if rd.Result.IsBottom() {
			readIndex[i] = 0
			continue
		}
		idx, ok := valueToIndex[string(rd.Result)]
		if !ok {
			readIndex[i] = -1
			addViolation(CondValidValue, "read %s returned a value that was never written", rd)
			continue
		}
		readIndex[i] = idx
	}

	// Condition (2): a read that succeeds write_k returns val_l, l ≥ k.
	//
	// The naive check scans every write per read (O(R·W)). Instead, sort the
	// completed writes by return time and take a running maximum of their
	// 1-based indices; "latest write completed before rd was invoked" is then
	// one binary search per read. The running maximum makes the result
	// identical to the scan even if completion order ever diverged from
	// invocation order.
	type doneWrite struct {
		ret time.Time
		idx int // 1-based write index
	}
	done := make([]doneWrite, 0, len(writes))
	for k, wr := range writes {
		if wr.Completed && !wr.Failed {
			done = append(done, doneWrite{ret: wr.Returned, idx: k + 1})
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].ret.Before(done[b].ret) })
	prefixMax := make([]int, len(done))
	for i, dw := range done {
		prefixMax[i] = dw.idx
		if i > 0 && prefixMax[i-1] > dw.idx {
			prefixMax[i] = prefixMax[i-1]
		}
	}
	for i, rd := range reads {
		if readIndex[i] < 0 {
			continue
		}
		// First completed write NOT strictly before rd.Invoked; everything
		// left of it precedes the read.
		pos := sort.Search(len(done), func(p int) bool { return !done[p].ret.Before(rd.Invoked) })
		lastCompleted := 0
		if pos > 0 {
			lastCompleted = prefixMax[pos-1]
		}
		if readIndex[i] < lastCompleted {
			addViolation(CondReadAfterWrite,
				"read %s returned val_%d although write %d (%s) completed before it was invoked",
				rd, readIndex[i], lastCompleted, writes[lastCompleted-1].Argument)
		}
	}

	// Condition (3): a read returning val_k (k ≥ 1) must not precede
	// write_k.
	for i, rd := range reads {
		k := readIndex[i]
		if k <= 0 {
			continue
		}
		wr := writes[k-1]
		if rd.Precedes(wr) {
			addViolation(CondNoFutureRead,
				"read %s returned val_%d but preceded its write %s", rd, k, wr)
		}
	}

	// Condition (4): reads never go back in time. An O(R log R) sweep first
	// decides whether ANY violating pair exists: a pair (rd1 → rd2) violates
	// iff some read returning a higher index returned strictly before rd2 was
	// invoked, so it suffices to compare each read against the running-max
	// index of reads sorted by return time. Only when the sweep finds a
	// violation does the quadratic pass run, so that the reported pairs (and
	// their order) are identical to the naive pairwise check.
	if requireMonotoneReads && readsGoBackInTime(reads, readIndex) {
		for i, rd1 := range reads {
			if readIndex[i] < 0 {
				continue
			}
			for j, rd2 := range reads {
				if i == j || readIndex[j] < 0 {
					continue
				}
				if rd1.Precedes(rd2) && readIndex[j] < readIndex[i] {
					addViolation(CondReadMonotone,
						"read %s returned val_%d after read %s had returned val_%d",
						rd2, readIndex[j], rd1, readIndex[i])
				}
			}
		}
	}
	return report, nil
}

// readsGoBackInTime reports whether some pair of reads violates condition
// (4): rd1 precedes rd2 yet rd2 returned an older value. It is the existence
// pre-check for checkSW's monotone-reads pass.
func readsGoBackInTime(reads []history.Operation, readIndex []int) bool {
	type retRead struct {
		ret time.Time
		idx int
	}
	byReturn := make([]retRead, 0, len(reads))
	for i, rd := range reads {
		if readIndex[i] >= 0 {
			byReturn = append(byReturn, retRead{ret: rd.Returned, idx: readIndex[i]})
		}
	}
	sort.Slice(byReturn, func(a, b int) bool { return byReturn[a].ret.Before(byReturn[b].ret) })
	prefixMax := make([]int, len(byReturn))
	for i, rr := range byReturn {
		prefixMax[i] = rr.idx
		if i > 0 && prefixMax[i-1] > rr.idx {
			prefixMax[i] = prefixMax[i-1]
		}
	}
	for j, rd := range reads {
		if readIndex[j] < 0 {
			continue
		}
		pos := sort.Search(len(byReturn), func(p int) bool { return !byReturn[p].ret.Before(rd.Invoked) })
		if pos > 0 && prefixMax[pos-1] > readIndex[j] {
			return true
		}
	}
	return false
}

// CheckLinearizable searches for a legal linearization of a (possibly
// multi-writer) register history: a total order of the operations that
// respects real-time precedence and in which every read returns the value of
// the latest preceding write (or ⊥ if there is none). Incomplete or failed
// writes are optional: they may be linearized at any point after their
// invocation or omitted entirely. Incomplete reads are ignored.
//
// The search is exponential in the worst case; histories checked this way in
// the experiments are small (tens of operations).
func CheckLinearizable(h history.History) (Report, error) {
	type op struct {
		history.Operation
		optional bool
	}

	var ops []op
	for _, o := range h {
		switch {
		case o.Kind == history.OpWrite && o.Completed && !o.Failed:
			ops = append(ops, op{Operation: o})
		case o.Kind == history.OpWrite:
			ops = append(ops, op{Operation: o, optional: true})
		case o.Kind == history.OpRead && o.Completed && !o.Failed:
			ops = append(ops, op{Operation: o})
		}
	}
	if len(ops) > 63 {
		return Report{}, fmt.Errorf("atomicity: linearizability check limited to 63 operations, got %d", len(ops))
	}

	// Distinct write values are required to identify reads with writes.
	seen := map[string]bool{}
	writesTotal, readsTotal := 0, 0
	for _, o := range ops {
		if o.Kind == history.OpWrite {
			writesTotal++
			if seen[string(o.Argument)] {
				return Report{}, fmt.Errorf("%w: %q", ErrDuplicateWrites, o.Argument)
			}
			seen[string(o.Argument)] = true
		} else {
			readsTotal++
		}
	}

	// precedes[i] is the set of operations that must be linearized before
	// operation i may be linearized (returned before i was invoked).
	n := len(ops)
	precedes := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && ops[j].Precedes(ops[i].Operation) {
				precedes[i] |= 1 << uint(j)
			}
		}
	}

	// requiredMask has a bit for every mandatory operation.
	var requiredMask uint64
	for i, o := range ops {
		if !o.optional {
			requiredMask |= 1 << uint(i)
		}
	}

	type state struct {
		done  uint64
		value string
	}
	visited := make(map[state]bool)

	var dfs func(done uint64, current string) bool
	dfs = func(done uint64, current string) bool {
		if done&requiredMask == requiredMask {
			return true
		}
		st := state{done: done, value: current}
		if visited[st] {
			return false
		}
		visited[st] = true

		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if done&bit != 0 {
				continue
			}
			if precedes[i]&^done != 0 {
				continue // some predecessor not linearized yet
			}
			o := ops[i]
			if o.Kind == history.OpRead {
				want := valueKey(o.Result, o.Result.IsBottom())
				if want != current {
					continue
				}
				if dfs(done|bit, current) {
					return true
				}
				continue
			}
			// Write: the register takes its value.
			if dfs(done|bit, valueKey(o.Argument, false)) {
				return true
			}
		}
		return false
	}

	report := Report{Reads: readsTotal, Writes: writesTotal}
	if dfs(0, "") {
		report.OK = true
		return report, nil
	}
	report.Violations = []Violation{{
		Condition: CondReadMonotone,
		Message:   "no linearization of the history exists",
	}}
	return report, nil
}

// MustBeAtomic is a test helper: it returns an error when the history is not
// atomic, formatting the violations.
func MustBeAtomic(h history.History) error {
	report, err := CheckSWMR(h)
	if err != nil {
		return err
	}
	if !report.OK {
		return fmt.Errorf("history is not atomic:\n%s\nhistory:\n%s", report, h)
	}
	return nil
}
