package durable

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects when appended records are forced to stable storage.
type Policy string

const (
	// FsyncAlways makes Commit fsync: a record is on stable storage once the
	// Commit that covers it returns, and a server acks only after that (the
	// invariant is stated on Log.Commit), so nothing acknowledged is ever
	// lost. The fsync is per Commit, not per record — a server's Commit
	// covers one executor run.
	FsyncAlways Policy = "always"
	// FsyncInterval fsyncs on a background ticker (Options.FsyncEvery): a
	// crash loses at most one interval of acknowledged writes.
	FsyncInterval Policy = "interval"
	// FsyncNever leaves flushing to the OS page cache: a process crash is
	// survivable (the kernel still has the writes), a machine crash is not.
	FsyncNever Policy = "never"
)

const (
	defaultSegmentBytes  = 4 << 20
	defaultSnapshotEvery = 4096
	defaultFsyncEvery    = 100 * time.Millisecond

	incarnationFile = "INCARNATION"
)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("durable: log closed")

// Options configures one server's durable log.
type Options struct {
	// Dir is the server's private data directory (created if absent). No two
	// live logs may share a directory.
	Dir string
	// Fsync is the flush policy; empty means FsyncInterval.
	Fsync Policy
	// FsyncEvery is the FsyncInterval period; 0 means 100ms.
	FsyncEvery time.Duration
	// SegmentBytes rotates the active segment past this size; 0 means 4MiB.
	SegmentBytes int64
	// SnapshotEvery triggers a background snapshot after that many appends.
	// 0 means the 4096 default; negative disables automatic snapshots
	// (Snapshot can still be called explicitly — the deterministic simulation
	// disables the background trigger because its timing is wall-clock).
	SnapshotEvery int
	// Epoch is the topology epoch stamped into every segment and snapshot
	// header. Open refuses to recover state written under a different epoch.
	Epoch uint64
	// SimulateCrash makes Close model a machine crash instead of a graceful
	// shutdown: the active segment is truncated back to its last-fsynced
	// offset and no final flush or snapshot runs. Testing/simulation knob.
	SimulateCrash bool
	// Counters, when non-nil, is where the log publishes its counters (so an
	// owner can aggregate across servers); nil uses a private set.
	Counters *Counters
}

// Hooks connect the log to the protocol server that owns the state.
type Hooks struct {
	// Apply replays one recovered record into server state during Open. The
	// record is valid only for the duration of the call and its byte fields
	// alias the replay buffer. A nil Apply validates records without applying
	// them. An Apply error aborts recovery.
	Apply func(*Record) error
	// Dump emits the server's complete current state, one KindState record
	// per register, via emit. Called without the log lock held (so emitting
	// may take the server's own locks). nil disables snapshots.
	Dump func(emit func(*Record) error) error
}

// Counters are the log's cumulative statistics. All fields are atomic so the
// hot path never takes a lock to bump them and owners read them live.
type Counters struct {
	Appends          atomic.Int64
	Fsyncs           atomic.Int64
	Snapshots        atomic.Int64
	SnapshotRecords  atomic.Int64
	SegmentsReplayed atomic.Int64
	RecordsRecovered atomic.Int64
	TornTailTrims    atomic.Int64
	AppendErrors     atomic.Int64
	Incarnation      atomic.Uint64
}

// Stats is a point-in-time copy of Counters: the write-ahead and recovery
// work of one log, or — accumulated with Add — of a deployment's logs (the
// public fastread.DurableStats is this type).
type Stats struct {
	// Appends counts log records written; Fsyncs the stable-storage flushes
	// they cost (compare the two to see a policy's amortisation).
	Appends, Fsyncs int64
	// Snapshots counts snapshot runs and SnapshotRecords the state records
	// they wrote.
	Snapshots, SnapshotRecords int64
	// SegmentsReplayed, RecordsRecovered and TornTailTrims describe recovery
	// work: log segments read back, records re-applied to server state, and
	// torn final records trimmed (a trim is a crash mid-append doing exactly
	// what it should — only unacknowledged-or-unsynced suffix is lost).
	SegmentsReplayed, RecordsRecovered, TornTailTrims int64
	// AppendErrors counts appends that hit an I/O error (sticky per log).
	AppendErrors int64
	// Incarnation is the log's restart-incarnation counter (aggregated as a
	// maximum — it is an identity, not a tally).
	Incarnation uint64
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Appends:          c.Appends.Load(),
		Fsyncs:           c.Fsyncs.Load(),
		Snapshots:        c.Snapshots.Load(),
		SnapshotRecords:  c.SnapshotRecords.Load(),
		SegmentsReplayed: c.SegmentsReplayed.Load(),
		RecordsRecovered: c.RecordsRecovered.Load(),
		TornTailTrims:    c.TornTailTrims.Load(),
		AppendErrors:     c.AppendErrors.Load(),
		Incarnation:      c.Incarnation.Load(),
	}
}

// Add accumulates s into an aggregate (incarnation takes the max — it is an
// identity, not a tally).
func (s *Stats) Add(o Stats) {
	s.Appends += o.Appends
	s.Fsyncs += o.Fsyncs
	s.Snapshots += o.Snapshots
	s.SnapshotRecords += o.SnapshotRecords
	s.SegmentsReplayed += o.SegmentsReplayed
	s.RecordsRecovered += o.RecordsRecovered
	s.TornTailTrims += o.TornTailTrims
	s.AppendErrors += o.AppendErrors
	if o.Incarnation > s.Incarnation {
		s.Incarnation = o.Incarnation
	}
}

// Log is one server's durable state: an append-only segment WAL plus periodic
// snapshots, with a persisted incarnation counter. Open recovers whatever is
// on disk (replaying through Hooks.Apply) before returning.
type Log struct {
	opts     Options
	hooks    Hooks
	counters *Counters

	incarnation uint64

	mu        sync.Mutex
	dirf      *os.File
	f         *os.File // active segment
	segIndex  uint64
	written   int64 // bytes written to the active segment
	synced    int64 // bytes known fsynced in the active segment
	lsn       int64 // last assigned LSN
	sinceSnap int
	firstErr  error
	failed    bool // the write-ahead path itself failed: see failLocked
	closed    bool

	durableLSN atomic.Int64 // see DurableLSN

	payloadBuf []byte
	frameBuf   []byte

	snapMu   sync.Mutex // serializes snapshot runs
	snapCh   chan struct{}
	stopCh   chan struct{}
	stopping atomic.Bool
	wg       sync.WaitGroup
}

// fsync forces f down unless the policy is FsyncNever — under "never" the
// caller asked for page-cache-only durability, so even structural syncs
// (headers, seals, the incarnation file) are skipped. The synced-offset
// bookkeeping is maintained regardless, which is what keeps SimulateCrash
// truncation deterministic.
func (l *Log) fsync(f *os.File) error {
	if l.opts.Fsync == FsyncNever {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	l.counters.Fsyncs.Add(1)
	return nil
}

func (l *Log) syncDir() error {
	if l.opts.Fsync == FsyncNever {
		return nil
	}
	return l.dirf.Sync()
}

func segmentName(i uint64) string  { return fmt.Sprintf("wal-%016d.seg", i) }
func snapshotName(i uint64) string { return fmt.Sprintf("snap-%016d.snap", i) }

func parseIndexedName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	return n, err == nil
}

// Open creates or recovers the log in opts.Dir: it bumps and persists the
// incarnation counter, restores state from the newest intact snapshot plus a
// replay of the surviving segment tail (trimming a torn final record), and
// leaves a fresh active segment ready for appends. State written under a
// different Epoch fails with ErrEpochMismatch.
func Open(opts Options, hooks Hooks) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("durable: Options.Dir is required")
	}
	if opts.Fsync == "" {
		opts.Fsync = FsyncInterval
	}
	switch opts.Fsync {
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return nil, fmt.Errorf("durable: unknown fsync policy %q", opts.Fsync)
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = defaultFsyncEvery
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	dirf, err := os.Open(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts:     opts,
		hooks:    hooks,
		counters: opts.Counters,
		dirf:     dirf,
		snapCh:   make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	if l.counters == nil {
		l.counters = &Counters{}
	}
	if err := l.bumpIncarnation(); err != nil {
		dirf.Close()
		return nil, err
	}
	if err := l.recover(); err != nil {
		dirf.Close()
		return nil, err
	}
	if l.opts.Fsync == FsyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	if l.opts.SnapshotEvery > 0 && l.hooks.Dump != nil {
		l.wg.Add(1)
		go l.snapshotLoop()
	}
	return l, nil
}

// Incarnation returns this process lifetime's incarnation number (strictly
// greater than any previous lifetime's in the same directory).
func (l *Log) Incarnation() uint64 { return l.incarnation }

// Stats copies the log's counters.
func (l *Log) Stats() Stats { return l.counters.Snapshot() }

func (l *Log) bumpIncarnation() error {
	path := filepath.Join(l.opts.Dir, incarnationFile)
	var cur uint64
	if b, err := os.ReadFile(path); err == nil {
		if v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); perr == nil {
			cur = v
		}
	}
	next := cur + 1
	tmp := path + ".tmp"
	if err := l.writeFile(tmp, []byte(strconv.FormatUint(next, 10)+"\n")); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	l.incarnation = next
	l.counters.Incarnation.Store(next)
	return nil
}

func (l *Log) writeFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := l.fsync(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (l *Log) listIndexed(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if i, ok := parseIndexedName(e.Name(), prefix, suffix); ok {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// recover restores state from disk: newest intact snapshot, then replay of
// every segment at or above its watermark, stopping cleanly at the first torn
// or corrupt record (which is trimmed so the next recovery sees a clean log).
// It finishes by opening a fresh active segment above every recovered index —
// recovered files are never appended to.
func (l *Log) recover() error {
	snaps, err := l.listIndexed("snap-", ".snap")
	if err != nil {
		return err
	}
	var watermark uint64
	maxLSN := int64(0)
	rec := &Record{}
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(l.opts.Dir, snapshotName(snaps[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		wm, err := parseFileHeader(data, snapMagic, l.opts.Epoch)
		if errors.Is(err, ErrEpochMismatch) {
			return err
		}
		if err != nil {
			os.Remove(path)
			continue
		}
		// Pass 1: every record must be intact and decodable before anything
		// is applied — a snapshot restores all-or-nothing.
		body := data[fileHeaderLen:]
		consumed, err := scanFrames(body, func(p []byte) error { return decodeRecord(rec, p) })
		if err != nil || consumed != len(body) {
			os.Remove(path)
			continue
		}
		// Pass 2: apply.
		if _, err := scanFrames(body, func(p []byte) error {
			if err := decodeRecord(rec, p); err != nil {
				return err
			}
			if rec.LSN > maxLSN {
				maxLSN = rec.LSN
			}
			l.counters.RecordsRecovered.Add(1)
			if l.hooks.Apply != nil {
				return l.hooks.Apply(rec)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("durable: applying snapshot %s: %w", snapshotName(snaps[i]), err)
		}
		watermark = wm
		for j := 0; j < i; j++ {
			os.Remove(filepath.Join(l.opts.Dir, snapshotName(snaps[j])))
		}
		break
	}

	segs, err := l.listIndexed("wal-", ".seg")
	if err != nil {
		return err
	}
	maxIndex := watermark
	torn := false
	for _, idx := range segs {
		path := filepath.Join(l.opts.Dir, segmentName(idx))
		if idx > maxIndex {
			maxIndex = idx
		}
		if idx < watermark || torn {
			// Dead (covered by the snapshot) or unreachable past a torn
			// point: a recovered log must be clean end to end.
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, err := parseFileHeader(data, segMagic, l.opts.Epoch); err != nil {
			if errors.Is(err, ErrEpochMismatch) {
				return err
			}
			// Torn header (a crash during segment creation): the whole file
			// and everything after it is unreachable.
			os.Remove(path)
			l.counters.TornTailTrims.Add(1)
			torn = true
			continue
		}
		body := data[fileHeaderLen:]
		consumed, err := scanFrames(body, func(p []byte) error {
			if derr := decodeRecord(rec, p); derr != nil {
				return errTorn
			}
			if rec.LSN > maxLSN {
				maxLSN = rec.LSN
			}
			l.counters.RecordsRecovered.Add(1)
			if l.hooks.Apply != nil {
				return l.hooks.Apply(rec)
			}
			return nil
		})
		l.counters.SegmentsReplayed.Add(1)
		if err != nil {
			if !errors.Is(err, errTorn) {
				return fmt.Errorf("durable: replaying %s: %w", segmentName(idx), err)
			}
			if terr := os.Truncate(path, int64(fileHeaderLen+consumed)); terr != nil {
				return terr
			}
			l.counters.TornTailTrims.Add(1)
			torn = true
		}
	}
	l.lsn = maxLSN
	if err := l.syncDir(); err != nil {
		return err
	}
	return l.openSegmentLocked(maxIndex + 1)
}

// openSegmentLocked creates segment idx as the active segment and fsyncs its
// header, so the segment's existence and framing boundary are durable before
// any record lands in it (this keeps the crash-truncation point — the synced
// offset — deterministic).
func (l *Log) openSegmentLocked(idx uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(idx)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := appendFileHeader(l.frameBuf[:0], segMagic, l.opts.Epoch, idx)
	l.frameBuf = hdr[:0]
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := l.fsync(f); err != nil {
		f.Close()
		return err
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segIndex = idx
	l.written = fileHeaderLen
	l.synced = fileHeaderLen
	l.durableLSN.Store(l.lsn)
	return nil
}

func (l *Log) setErrLocked(err error) {
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.counters.AppendErrors.Add(1)
}

// failLocked records an error on the write-ahead path itself (a short write,
// a failed fsync, a segment that could not be sealed or opened). Unlike a
// failed snapshot it leaves the file in an unknown state — records behind a
// torn frame are unreachable, pages behind a failed fsync may be gone — so
// the log never reports a successful Commit again.
func (l *Log) failLocked(err error) {
	l.failed = true
	l.setErrLocked(err)
}

// Stage assigns the record the next LSN and writes it to the active segment
// without forcing it down: it is in the file (LSN order is file order) but
// durable under no policy until a Commit covers it. It is safe for
// concurrent use. The record is fully consumed before return. On an I/O
// error the LSN is still assigned and returned, the error is sticky
// (surfaced by Close and the AppendErrors counter) and every later Commit
// fails.
func (l *Log) Stage(r *Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stageLocked(r)
}

func (l *Log) stageLocked(r *Record) (int64, error) {
	l.lsn++
	lsn := l.lsn
	if l.closed || l.f == nil {
		l.setErrLocked(ErrClosed)
		return lsn, ErrClosed
	}
	r.LSN = lsn
	l.payloadBuf = appendRecord(l.payloadBuf[:0], r)
	l.frameBuf = appendFrame(l.frameBuf[:0], l.payloadBuf)
	n, err := l.f.Write(l.frameBuf)
	l.written += int64(n)
	if err != nil {
		l.failLocked(err)
		return lsn, err
	}
	l.counters.Appends.Add(1)
	if l.opts.SnapshotEvery > 0 && l.hooks.Dump != nil {
		l.sinceSnap++
		if l.sinceSnap >= l.opts.SnapshotEvery {
			l.sinceSnap = 0
			select {
			case l.snapCh <- struct{}{}:
			default:
			}
		}
	}
	return lsn, nil
}

// Commit makes every record staged so far — by any goroutine — as durable as
// the policy promises: under FsyncAlways one fsync covers them all (and costs
// nothing when an earlier Commit already did), under FsyncInterval and
// FsyncNever it forces nothing. It also seals a full segment. The invariant
// the servers build on: an ack leaves a server only after the Commit that
// covers its record returned nil. A log that is closed, or whose write-ahead
// path has failed once, fails every Commit.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *Log) commitLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return l.firstErr
	}
	if l.opts.Fsync == FsyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if l.written >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
			return err
		}
	}
	return nil
}

// Append is Stage then Commit under one hold of the log lock: one record,
// and under FsyncAlways one fsync before it returns.
func (l *Log) Append(r *Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.stageLocked(r)
	if err != nil {
		return lsn, err
	}
	return lsn, l.commitLocked()
}

// DurableLSN returns the LSN at or below which every record has been forced
// down (fsynced, or sealed in a closed segment). It is read without the log
// lock, so a caller racing a Commit sees the value from before it.
func (l *Log) DurableLSN() int64 { return l.durableLSN.Load() }

// rotateLocked seals the active segment (fsync + close — sealed segments are
// always durable regardless of policy) and opens the next one.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.fsync(l.f); err != nil {
			l.f.Close()
			l.f = nil
			return err
		}
		if err := l.f.Close(); err != nil {
			l.f = nil
			return err
		}
		l.f = nil
	}
	return l.openSegmentLocked(l.segIndex + 1)
}

// Sync forces every written record to stable storage whatever the policy. A
// closed log has nothing left to force and reports ErrClosed.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		// A failed rotation left no active segment; firstErr says why.
		return l.firstErr
	}
	if l.synced == l.written {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.failLocked(err)
		return err
	}
	l.synced = l.written
	l.durableLSN.Store(l.lsn)
	l.counters.Fsyncs.Add(1)
	return nil
}

func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-t.C:
			l.Sync()
		}
	}
}

func (l *Log) snapshotLoop() {
	defer l.wg.Done()
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.snapCh:
			if err := l.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
				l.mu.Lock()
				l.setErrLocked(err)
				l.mu.Unlock()
			}
		}
	}
}

// Snapshot rotates to a fresh segment (the watermark), dumps the server's
// complete state via Hooks.Dump into a new snapshot file, then deletes the
// segments the snapshot made dead. Dump runs WITHOUT the log lock, so
// concurrent appends proceed; the per-record LSNs make the overlap idempotent
// on replay (a dumped state's lsn tells recovery which deltas in the live
// segment it already covers).
func (l *Log) Snapshot() error {
	if l.hooks.Dump == nil {
		return nil
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	l.mu.Lock()
	if l.closed || l.f == nil {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		l.failLocked(err)
		l.mu.Unlock()
		return err
	}
	watermark := l.segIndex
	l.mu.Unlock()

	tmp := filepath.Join(l.opts.Dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.Write(appendFileHeader(nil, snapMagic, l.opts.Epoch, watermark)); err != nil {
		f.Close()
		return err
	}
	var payload, frame []byte
	records := int64(0)
	err = l.hooks.Dump(func(r *Record) error {
		payload = appendRecord(payload[:0], r)
		frame = appendFrame(frame[:0], payload)
		records++
		_, werr := bw.Write(frame)
		return werr
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = l.fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.opts.Dir, snapshotName(watermark))); err != nil {
		return err
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	l.counters.Snapshots.Add(1)
	l.counters.SnapshotRecords.Add(records)

	// Reclaim: segments below the watermark and snapshots below this one are
	// fully covered by the file just written.
	if segs, err := l.listIndexed("wal-", ".seg"); err == nil {
		for _, idx := range segs {
			if idx < watermark {
				os.Remove(filepath.Join(l.opts.Dir, segmentName(idx)))
			}
		}
	}
	if snaps, err := l.listIndexed("snap-", ".snap"); err == nil {
		for _, idx := range snaps {
			if idx < watermark {
				os.Remove(filepath.Join(l.opts.Dir, snapshotName(idx)))
			}
		}
	}
	return nil
}

// Close stops the background goroutines and releases the log. A graceful
// close forces everything down — records staged but not yet committed
// included — and writes a final snapshot (so the next Open replays almost
// nothing); with Options.SimulateCrash the active segment is instead
// truncated back to its last-fsynced offset, modeling exactly what a machine
// crash would have preserved under the configured fsync policy: staged but
// uncommitted records are dropped, and no ack depended on them.
// Returns the first error the log encountered in its lifetime.
func (l *Log) Close() error {
	if !l.stopping.CompareAndSwap(false, true) {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.firstErr
	}

	close(l.stopCh)
	l.wg.Wait()

	if !l.opts.SimulateCrash {
		l.Sync()
		if err := l.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
			l.mu.Lock()
			l.setErrLocked(err)
			l.mu.Unlock()
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.f != nil {
		if l.opts.SimulateCrash {
			// What the disk would hold after a power cut: only bytes the
			// policy had already forced down.
			l.f.Truncate(l.synced)
		} else {
			if err := l.fsync(l.f); err != nil {
				l.setErrLocked(err)
			}
		}
		if err := l.f.Close(); err != nil && !l.opts.SimulateCrash {
			l.setErrLocked(err)
		}
		l.f = nil
	}
	l.dirf.Close()
	return l.firstErr
}
