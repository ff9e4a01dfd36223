package core

import (
	"errors"
	"fmt"
	"math/bits"

	"fastread/internal/quorum"
	"fastread/internal/types"
)

// MaxPredicateUnion bounds the number of distinct legitimate clients that may
// appear in the seen sets handed to the predicate evaluator. Each client is
// one bit of a types.ClientMask, and when the seen sets of one read diverge
// the evaluator dedupes candidate witnesses in a bitmap of 2^u bits (512 KiB
// at the bound). Honest runs only ever produce unions of size ≤ R+1, and the
// façade rejects configurations with more readers than this.
const MaxPredicateUnion = 22

// ErrPredicateTooLarge indicates the seen sets mention more distinct clients
// than the exact evaluator supports.
var ErrPredicateTooLarge = errors.New("core: seen-set union exceeds supported size")

// SeenAck is the per-message input to the predicate: which server sent the
// maxTS message and which clients were in its seen set.
type SeenAck struct {
	Server types.ProcessID
	Seen   types.ProcessSet
}

// PredicateResult reports the outcome of evaluating the fast-read predicate.
type PredicateResult struct {
	// Holds is true when the reader may safely return maxTS.
	Holds bool
	// Level is the witness value of a ∈ [1, R+1] for which the predicate
	// held (0 when it did not hold).
	Level int
	// Witness is the set of clients common to the witnessing messages
	// (empty when the predicate did not hold).
	Witness types.ClientMask
	// Support is the number of messages containing the witness set.
	Support int
}

// EvaluatePredicate decides whether a reader that received the given maxTS
// messages may return maxTS (paper Figure 2 line 19, Figure 5 line 19):
//
//	∃ a ∈ [1, R+1], ∃ MS ⊆ maxTSmsg:
//	    |MS| ≥ S − a·t − (a−1)·b   and   |∩_{m ∈ MS} m.seen| ≥ a
//
// In the crash model b = 0 and the threshold reduces to S − a·t.
//
// The evaluation is exact. For a candidate set P of clients, the best
// possible MS is the set of all messages whose seen set contains P, so the
// predicate is equivalent to the existence of a non-empty client set P with
// |{m : P ⊆ m.seen}| ≥ S − |P|·t − (|P|−1)·b and |P| ≤ R+1. Only
// intersections of received seen sets need checking: the closure cl(P), the
// intersection of every seen set containing P, has P's support and at least
// P's size, and thresholds only fall as a grows, so the least level over
// closed sets is the least level over all P (predicateScratch.decide).
//
// Only legitimate clients (the writer and readers r1..rR from cfg) are
// considered: malicious servers may stuff arbitrary identifiers into their
// seen sets, but fictitious processes never help an honest run and must not
// influence the decision.
//
// This is the map-based adapter onto the mask kernel the reader runs per
// read; the reported Witness is the closed set that witnessed Level.
func EvaluatePredicate(cfg quorum.Config, acks []SeenAck) (PredicateResult, error) {
	if err := cfg.Validate(); err != nil {
		return PredicateResult{}, err
	}
	var s predicateScratch
	legit := types.Clients(cfg.Readers)
	for _, a := range acks {
		var mask types.ClientMask
		for p := range a.Seen {
			mask |= types.ClientBit(p)
		}
		s.add(mask & legit)
	}
	level, witness, support, err := s.decide(cfg)
	if err != nil || level == 0 {
		return PredicateResult{}, err
	}
	return PredicateResult{Holds: true, Level: level, Witness: witness, Support: support}, nil
}

// predicateScratch is the fast-read predicate's kernel and its reusable
// buffers. A caller resets it, adds each maxTS acknowledgement's seen mask,
// already restricted to the legitimate clients, and calls decide. The reader
// owns one, guarded by its mutex, and feeds it the masks straight off the
// decoded acknowledgements, so a steady-state read evaluates the predicate
// without allocating; EvaluatePredicate feeds a one-shot scratch from
// ProcessSet maps.
type predicateScratch struct {
	seen   []seenSet // the distinct seen sets received
	closed []uint32  // intersection closure of seen, in discovery order
	marks  []uint64  // membership bitmap over closed; all zero between calls
}

// seenSet is one distinct seen set and the number of acknowledgements that
// carried it. decide's divergent path compacts the mask onto the low bits
// of the union of the sets (client order kept).
type seenSet struct {
	mask  uint32
	count int32
}

// reset starts the next evaluation.
func (s *predicateScratch) reset() { s.seen = s.seen[:0] }

// add records one acknowledgement's seen set. Acknowledgements are at most S
// and in the steady state all carry the same set, so the scan is short.
func (s *predicateScratch) add(mask types.ClientMask) {
	for i := range s.seen {
		if s.seen[i].mask == uint32(mask) {
			s.seen[i].count++
			return
		}
	}
	s.seen = append(s.seen, seenSet{uint32(mask), 1})
}

// decide evaluates the predicate over the recorded seen sets. It returns the
// least level a for which some client set witnesses the predicate (0 when
// none does), the closed set that witnessed it and that set's support.
//
// Instead of all 2^u client subsets it walks the non-empty intersections of
// the received seen sets — one set when the servers agree — generated
// incrementally: closure(F ∪ {m}) = closure(F) ∪ {m} ∪ {c ∧ m : c ∈
// closure(F)}. Each closed set is found once (the bitmap makes the dedupe
// O(1), so a crafted lattice-maximal input costs its 2^u closed sets times
// the distinct masks, not their square) and the walk stops at level 1.
func (s *predicateScratch) decide(cfg quorum.Config) (level int, witness types.ClientMask, support int, err error) {
	var union uint32
	for _, m := range s.seen {
		union |= m.mask
	}
	if n := bits.OnesCount32(union); n > MaxPredicateUnion {
		return 0, 0, 0, fmt.Errorf("%w: %d clients", ErrPredicateTooLarge, n)
	}
	if len(s.seen) < 2 {
		// Every server reported the same seen set: it is the only candidate,
		// and no memory sized by the union is touched.
		if union != 0 {
			level, support = s.levelOf(cfg, union, 0)
			witness = types.ClientMask(union)
		}
		return level, witness, support, nil
	}
	for i := range s.seen {
		s.seen[i].mask = compact(s.seen[i].mask, union)
	}
	if words := (1<<bits.OnesCount32(union))/64 + 1; len(s.marks) < words {
		s.marks = make([]uint64, words)
	}
	var found uint32
	closed := s.closed[:0]
walk:
	for _, m := range s.seen {
		for i, n := -1, len(closed); i < n; i++ {
			c := m.mask
			if i >= 0 {
				c &= closed[i]
			}
			if c == 0 || s.marks[c>>6]&(1<<(c&63)) != 0 {
				continue
			}
			s.marks[c>>6] |= 1 << (c & 63)
			closed = append(closed, c)
			if a, sup := s.levelOf(cfg, c, level); a != 0 {
				level, found, support = a, c, sup
				if a == 1 {
					break walk
				}
			}
		}
	}
	for _, c := range closed {
		s.marks[c>>6] = 0
	}
	s.closed = closed[:0]
	return level, expand(found, union), support, nil
}

// compact moves the bits of mask that lie in union onto the low bits, in
// order: the i-th lowest bit of union becomes bit i.
func compact(mask, union uint32) (out uint32) {
	for bit := uint32(1); union != 0; bit <<= 1 {
		if low := union & -union; mask&low != 0 {
			out |= bit
		}
		union &= union - 1
	}
	return out
}

// expand is compact's inverse: bit i of mask becomes the i-th lowest bit of
// union.
func expand(mask, union uint32) (out types.ClientMask) {
	for bit := uint32(1); union != 0; bit <<= 1 {
		if low := union & -union; mask&bit != 0 {
			out |= types.ClientMask(low)
		}
		union &= union - 1
	}
	return out
}

// levelOf returns the support of closed set c — the acknowledgements whose
// seen set contains it — and the least a ≤ min(|c|, R+1) whose threshold that
// support meets, or 0 when there is none below the level already found
// (below = 0: nothing found yet). Thresholds fall as a grows, so the largest
// admissible a decides whether any does.
func (s *predicateScratch) levelOf(cfg quorum.Config, c uint32, below int) (level, support int) {
	for _, m := range s.seen {
		if m.mask&c == c {
			support += int(m.count)
		}
	}
	limit := min(bits.OnesCount32(c), cfg.MaxPredicateLevel())
	if below != 0 {
		limit = min(limit, below-1)
	}
	if limit < 1 || support < max(1, cfg.PredicateThreshold(limit)) {
		return 0, support
	}
	for a := 1; a < limit; a++ {
		if support >= max(1, cfg.PredicateThreshold(a)) {
			return a, support
		}
	}
	return limit, support
}

// isLegitimateClient reports whether p is the writer or one of the readers
// r1..rR.
func isLegitimateClient(p types.ProcessID, readers int) bool {
	switch p.Role {
	case types.RoleWriter:
		return p.Index == 0
	case types.RoleReader:
		return p.Index >= 1 && p.Index <= readers
	default:
		return false
	}
}
