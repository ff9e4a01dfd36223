package durable

import (
	"errors"
	"fmt"
	"testing"

	"fastread/internal/types"
)

// stageDelta stages one delta without committing it and applies it to st.
func stageDelta(t *testing.T, l *Log, st *testState, key, val string, ts int64) int64 {
	t.Helper()
	r := &Record{Kind: KindDelta, Key: key, TS: ts, Cur: []byte(val), From: types.Writer(), RCounter: ts}
	lsn, err := l.Stage(r)
	if err != nil {
		t.Fatalf("Stage: %v", err)
	}
	r.LSN = lsn
	if err := st.apply(r); err != nil {
		t.Fatalf("apply: %v", err)
	}
	return lsn
}

// TestCommitCoversEveryStagedRecord is the group-commit accounting: staging
// forces nothing, one Commit is one fsync however many records it covers, a
// Commit with nothing new is free, and Append is still one record, one fsync.
func TestCommitCoversEveryStagedRecord(t *testing.T) {
	st := newTestState()
	l := mustOpen(t, Options{Dir: t.TempDir(), Fsync: FsyncAlways, SnapshotEvery: -1}, st.hooks())
	defer l.Close()
	base := l.Stats()
	delta := func() (appends, fsyncs int64) {
		s := l.Stats()
		return s.Appends - base.Appends, s.Fsyncs - base.Fsyncs
	}

	var last int64
	for i := 0; i < 5; i++ {
		last = stageDelta(t, l, st, fmt.Sprintf("k%d", i), "v", int64(i+1))
	}
	if a, f := delta(); a != 5 || f != 0 || l.DurableLSN() != 0 {
		t.Fatalf("after 5 stages: appends=%d fsyncs=%d durable LSN=%d, want 5, 0, 0", a, f, l.DurableLSN())
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, f := delta(); f != 1 || l.DurableLSN() != last {
		t.Fatalf("after the commit: fsyncs=%d durable LSN=%d, want 1, %d", f, l.DurableLSN(), last)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, f := delta(); f != 1 {
		t.Fatalf("a commit with nothing staged cost %d fsyncs", f-1)
	}
	writeDelta(t, l, st, "k", "v", 9)
	if a, f := delta(); a != 6 || f != 2 || l.DurableLSN() != last+1 {
		t.Fatalf("after an Append: appends=%d fsyncs=%d durable LSN=%d, want 6, 2, %d", a, f, l.DurableLSN(), last+1)
	}
}

// TestCommitForcesNothingUnderLazyPolicies: interval and never keep their
// meaning — a committed record is exactly as durable as an appended one was.
func TestCommitForcesNothingUnderLazyPolicies(t *testing.T) {
	for _, policy := range []Policy{FsyncInterval, FsyncNever} {
		st := newTestState()
		l := mustOpen(t, Options{Dir: t.TempDir(), Fsync: policy, FsyncEvery: 1 << 40, SnapshotEvery: -1}, st.hooks())
		base := l.Stats().Fsyncs
		stageDelta(t, l, st, "k", "v", 1)
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if f := l.Stats().Fsyncs - base; f != 0 || l.DurableLSN() != 0 {
			t.Errorf("%s: commit cost %d fsyncs, durable LSN %d; want 0, 0", policy, f, l.DurableLSN())
		}
		l.Close()
	}
}

// TestCloseWithStagedRecords: a graceful close commits what was staged, a
// simulated crash drops it (nothing acknowledged depended on it) and keeps
// everything committed before.
func TestCloseWithStagedRecords(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			dir := t.TempDir()
			st := newTestState()
			opts := Options{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: -1, SimulateCrash: crash}
			l := mustOpen(t, opts, st.hooks())
			writeDelta(t, l, st, "k", "committed", 1)
			stageDelta(t, l, st, "k", "staged", 2)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := newTestState()
			l2 := mustOpen(t, opts, st2.hooks())
			defer l2.Close()
			want := "staged"
			if crash {
				want = "committed"
			}
			if v, _ := st2.get("k"); v != want {
				t.Fatalf("recovered %q, want %q", v, want)
			}
			if n := l2.Stats().TornTailTrims; n != 0 {
				t.Errorf("TornTailTrims = %d, want 0", n)
			}
		})
	}
}

// TestClosedLogRefuses: Stage, Commit, Append and Sync on a closed log all
// report ErrClosed, and the refused records are counted.
func TestClosedLogRefuses(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Fsync: FsyncAlways, SnapshotEvery: -1}, Hooks{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := &Record{Kind: KindDelta, Key: "k"}
	if _, err := l.Stage(r); !errors.Is(err, ErrClosed) {
		t.Errorf("Stage: %v", err)
	}
	if _, err := l.Append(r); !errors.Is(err, ErrClosed) {
		t.Errorf("Append: %v", err)
	}
	if err := l.Commit(); !errors.Is(err, ErrClosed) {
		t.Errorf("Commit: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync: %v", err)
	}
	if n := l.Stats().AppendErrors; n != 2 {
		t.Errorf("AppendErrors = %d, want 2", n)
	}
}

// TestWriteFailureFailsEveryLaterCommit: after the write-ahead path fails
// once (here: the segment's descriptor is gone) the file's contents are
// unknown, so no Commit may report success again, under any policy.
func TestWriteFailureFailsEveryLaterCommit(t *testing.T) {
	for _, policy := range []Policy{FsyncAlways, FsyncNever} {
		l := mustOpen(t, Options{Dir: t.TempDir(), Fsync: policy, SnapshotEvery: -1}, Hooks{})
		r := &Record{Kind: KindDelta, Key: "k"}
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		l.f.Close()
		if _, err := l.Stage(r); err == nil {
			t.Fatalf("%s: Stage on a dead descriptor succeeded", policy)
		}
		if err := l.Commit(); err == nil {
			t.Errorf("%s: Commit after a failed Stage succeeded", policy)
		}
		if _, err := l.Append(r); err == nil {
			t.Errorf("%s: Append after a failed Stage succeeded", policy)
		}
		if l.Stats().AppendErrors == 0 {
			t.Errorf("%s: AppendErrors did not move", policy)
		}
		if err := l.Close(); err == nil {
			t.Errorf("%s: Close hid the failure", policy)
		}
	}
}
