package transport

import "time"

// dueHeap is a min-heap of values ordered by (due time, push order). It is
// the one total order the wall-clock delay dispatcher and the virtual clock
// share: equal-delay messages — in particular all messages of one link —
// come out in SEND order, and virtual and wall modes deliver them
// identically. Not safe for concurrent use; its owner's mutex guards it.
type dueHeap[T any] struct {
	items []dueItem[T]
	seq   uint64
}

type dueItem[T any] struct {
	at  time.Time
	seq uint64
	v   T
}

func (h *dueHeap[T]) len() int { return len(h.items) }

// next returns the earliest due time; the heap must not be empty.
func (h *dueHeap[T]) next() time.Time { return h.items[0].at }

func (h *dueHeap[T]) before(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

func (h *dueHeap[T]) push(at time.Time, v T) {
	h.seq++
	h.items = append(h.items, dueItem[T]{at: at, seq: h.seq, v: v})
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the earliest value with its due time; the heap
// must not be empty.
func (h *dueHeap[T]) pop() (time.Time, T) {
	out := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = dueItem[T]{}
	h.items = h.items[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.before(l, smallest) {
			smallest = l
		}
		if r < last && h.before(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return out.at, out.v
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
