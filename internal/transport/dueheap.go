package transport

import "time"

// dueHeap is the virtual clock's event queue: a min-heap of callbacks
// ordered by (due time, push order), so equal-delay messages — in
// particular all messages of one link — deliver in SEND order. Not safe for
// concurrent use; the clock's mutex guards it.
type dueHeap struct {
	items []dueItem
	seq   uint64
}

type dueItem struct {
	at  time.Time
	seq uint64
	fn  func()
}

func (h *dueHeap) len() int { return len(h.items) }

func (h *dueHeap) before(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

func (h *dueHeap) push(at time.Time, fn func()) {
	h.seq++
	h.items = append(h.items, dueItem{at: at, seq: h.seq, fn: fn})
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the earliest callback with its due time; the heap
// must not be empty.
func (h *dueHeap) pop() (time.Time, func()) {
	out := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = dueItem{}
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
			return out.at, out.fn
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
