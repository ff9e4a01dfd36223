package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// valueAt builds the value the harness writes at a version.
func valueAt(version int64) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint64(v, uint64(version))
	return v
}

func TestCheckerAcceptsLegalReads(t *testing.T) {
	c := newChecker(2, 1)
	buf := make([]byte, valueSize)
	v2 := c.submitWrite(0, buf)
	// A read concurrent with write 2 may return 1 or 2.
	floor := c.submitRead(0)
	if err := c.completeRead(0, floor, readOut{version: 1, value: valueAt(1), roundTrips: 1}); err != nil {
		t.Fatalf("read of the old value during a write: %v", err)
	}
	floor = c.submitRead(0)
	if err := c.completeRead(0, floor, readOut{version: v2, value: valueAt(v2), roundTrips: 1}); err != nil {
		t.Fatalf("read of the new value during a write: %v", err)
	}
	c.completeWrite(0, v2)
	if c.violations != 0 {
		t.Fatalf("violations = %d, want 0", c.violations)
	}
}

func TestCheckerRejects(t *testing.T) {
	write := func(c *checker, k int) int64 {
		v := c.submitWrite(k, make([]byte, valueSize))
		c.completeWrite(k, v)
		return v
	}
	cases := []struct {
		name string
		run  func(c *checker) error
		want string
	}{
		{"stale read", func(c *checker) error {
			write(c, 0) // version 2 completed
			return c.completeRead(0, c.submitRead(0), readOut{version: 1, value: valueAt(1), roundTrips: 1})
		}, "stale read"},
		{"read from the future", func(c *checker) error {
			return c.completeRead(0, c.submitRead(0), readOut{version: 5, value: valueAt(5), roundTrips: 1})
		}, "from the future"},
		{"version/value mismatch", func(c *checker) error {
			v := write(c, 0)
			return c.completeRead(0, c.submitRead(0), readOut{version: v, value: valueAt(v - 1), roundTrips: 1})
		}, "carries the value of write"},
		{"short value", func(c *checker) error {
			return c.completeRead(0, c.submitRead(0), readOut{version: 1, value: []byte("x"), roundTrips: 1})
		}, "bytes"},
		{"non-monotonic pair of reads", func(c *checker) error {
			v := c.submitWrite(0, make([]byte, valueSize)) // in flight, never completes here
			if err := c.completeRead(0, c.submitRead(0), readOut{version: v, value: valueAt(v), roundTrips: 1}); err != nil {
				return errors.New("first read wrongly rejected: " + err.Error())
			}
			return c.completeRead(0, c.submitRead(0), readOut{version: v - 1, value: valueAt(v - 1), roundTrips: 1})
		}, "stale read"},
		{"two round trips", func(c *checker) error {
			return c.completeRead(0, c.submitRead(0), readOut{version: 1, value: valueAt(1), roundTrips: 2})
		}, "round trips"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newChecker(1, 1)
			err := tc.run(c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
			if c.violations != 1 || c.first == nil {
				t.Fatalf("violations = %d (first %v), want exactly 1", c.violations, c.first)
			}
		})
	}
}

// fakeTarget is an in-process register per key that can be told to lie or to
// fail, to show that the client loop reports both.
type fakeTarget struct {
	versions  []int64
	staleRead bool // reads return the previous version
	failRead  bool // reads return an error
}

func (f *fakeTarget) write(_ context.Context, k int, v []byte) error {
	f.versions[k] = int64(binary.BigEndian.Uint64(v))
	return nil
}

func (f *fakeTarget) read(_ context.Context, k, _ int) (readOut, error) {
	if f.failRead {
		return readOut{}, errors.New("injected failure")
	}
	version := f.versions[k]
	if f.staleRead && version > 1 {
		version--
	}
	return readOut{version: version, value: valueAt(version), roundTrips: 1}, nil
}

func (f *fakeTarget) submitWrite(context.Context, int, []byte, *pending) error { panic("unused") }
func (f *fakeTarget) submitRead(context.Context, int, int, *pending) error     { panic("unused") }
func (f *fakeTarget) close() error                                             { return nil }

func TestRunReportsViolationsAndFailures(t *testing.T) {
	sp := &spec{Name: "fake", Servers: 4, Faulty: 1, Readers: 1, Keys: 4, Clients: 1, Depth: 1, ReadShare: 0.5}
	for _, tc := range []struct {
		name   string
		target *fakeTarget
	}{
		{"honest", &fakeTarget{}},
		{"stale reads", &fakeTarget{staleRead: true}},
		{"failing reads", &fakeTarget{failRead: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.target.versions = []int64{1, 1, 1, 1}
			c := newClient(tc.target, newStreams(sp, 3)[0], newChecker(sp.Keys, 1), 1, 200)
			var scratch latScratch
			runRound(context.Background(), []*client{c}, &scratch)
			failed, violations, first := tally([]*client{c})
			honest := tc.name == "honest"
			if honest != (failed+violations == 0) || honest != (first == nil) {
				t.Fatalf("failed=%d violations=%d first=%v", failed, violations, first)
			}
			// Whatever the cause, the command's exit code follows the count.
			rep := report{Metrics: results{}}
			var out bytes.Buffer
			if code := rep.finish(&out, io.Discard, nil, "", 200, failed+violations); (code == 0) != honest {
				t.Fatalf("exit code %d with %d failures", code, failed+violations)
			}
			if honest != strings.Contains(out.String(), `"correct":true`) {
				t.Fatalf("result line: %s", out.String())
			}
		})
	}
}
