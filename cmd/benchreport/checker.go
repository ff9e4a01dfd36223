package main

import (
	"encoding/binary"
	"fmt"
)

// checker verifies, in O(1) per operation, that what a client goroutine
// observes of its keys is allowed by an atomic single-writer register. Every
// key has exactly one submitting goroutine (see stream), and that goroutine
// owns the key's state here, so nothing is locked.
//
// For a read of key k that returns version v:
//
//   - v >= every write version whose write COMPLETED before the read was
//     submitted (a read never misses a preceding write);
//   - v >= every version a read of k RETURNED before this read was submitted
//     (reads never go back in time);
//   - v <= the highest version SUBMITTED by the time the read completes (no
//     read from the future);
//   - the value's embedded sequence number equals v, its length is
//     valueSize, and the read used exactly one round trip (the paper's
//     claim).
//
// "Completed" and "returned" mean observed by the goroutine, which is sound:
// whatever it observed before submitting really did precede the submission.
// The traced run additionally records full histories and runs the repo's
// atomicity checker over them.
type checker struct {
	keys []keyState
	// violations counts rejected reads; first describes the first one.
	violations int
	first      error
}

type keyState struct {
	submitted int64 // highest write version submitted
	completed int64 // highest write version whose write completed
	returned  int64 // highest version a read returned
}

// newChecker starts every key at version `preloaded` (the set-up phase wrote
// and read each key that many times).
func newChecker(keys int, preloaded int64) *checker {
	c := &checker{keys: make([]keyState, keys)}
	for i := range c.keys {
		c.keys[i] = keyState{submitted: preloaded, completed: preloaded, returned: preloaded}
	}
	return c
}

// submitWrite reserves the key's next version for a write about to be
// submitted and stamps it into the value.
func (c *checker) submitWrite(k int, value []byte) int64 {
	s := &c.keys[k]
	s.submitted++
	binary.BigEndian.PutUint64(value, uint64(s.submitted))
	return s.submitted
}

func (c *checker) completeWrite(k int, version int64) {
	if s := &c.keys[k]; version > s.completed {
		s.completed = version
	}
}

// submitRead returns the floor a read submitted now must not go below.
func (c *checker) submitRead(k int) int64 {
	s := &c.keys[k]
	return max(s.completed, s.returned)
}

// completeRead checks one read result against the floor taken at its
// submission. It reports (and counts) a violation as an error.
func (c *checker) completeRead(k int, floor int64, out readOut) error {
	s := &c.keys[k]
	var err error
	switch {
	case out.version < floor:
		err = fmt.Errorf("stale read of %s: version %d, but %d had completed or been read before it was submitted", keyName(k), out.version, floor)
	case out.version > s.submitted:
		err = fmt.Errorf("read of %s from the future: version %d, highest submitted %d", keyName(k), out.version, s.submitted)
	case len(out.value) != valueSize:
		err = fmt.Errorf("read of %s: value of %d bytes at version %d, want %d", keyName(k), len(out.value), out.version, valueSize)
	case int64(binary.BigEndian.Uint64(out.value)) != out.version:
		err = fmt.Errorf("read of %s: version %d carries the value of write %d", keyName(k), out.version, binary.BigEndian.Uint64(out.value))
	case out.roundTrips != 1:
		err = fmt.Errorf("read of %s took %d round trips, want 1", keyName(k), out.roundTrips)
	}
	if err != nil {
		c.violations++
		if c.first == nil {
			c.first = err
		}
		return err
	}
	if out.version > s.returned {
		s.returned = out.version
	}
	return nil
}
