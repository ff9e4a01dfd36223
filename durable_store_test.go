package fastread

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fastread/internal/atomicity"
	"fastread/internal/history"
	"fastread/internal/types"
)

// drivePhase runs one phase of a concurrent workload against a register into
// a SHARED recorder, so a test can interleave Store-level faults (restarts)
// between phases and still check the whole multi-phase history at once.
// Write j of this phase writes value "<key>#v<firstWrite+j>"; firstWrite
// therefore threads the writer's version sequence across phases.
func drivePhase(ctx context.Context, t *testing.T, rec *history.Recorder, reg *Register, firstWrite, writes, readsPerReader int) {
	t.Helper()
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 1; j <= writes; j++ {
			seq := firstWrite + j
			v := types.Value(fmt.Sprintf("%s#v%d", reg.Key(), seq))
			id := rec.Invoke(types.Writer(), history.OpWrite, v)
			if err := reg.Writer().Write(ctx, v); err != nil {
				rec.Fail(id)
				t.Errorf("key %q write %d: %v", reg.Key(), seq, err)
				return
			}
			rec.Return(id, v, types.Timestamp(seq))
		}
	}()
	for ri, rd := range reg.Readers() {
		wg.Add(1)
		go func(index int, reader Reader) {
			defer wg.Done()
			for j := 0; j < readsPerReader; j++ {
				id := rec.Invoke(types.Reader(index), history.OpRead, nil)
				res, err := reader.Read(ctx)
				if err != nil {
					rec.Fail(id)
					t.Errorf("key %q reader %d read %d: %v", reg.Key(), index, j, err)
					return
				}
				rec.Return(id, types.Value(res.Value), types.Timestamp(res.Version))
			}
		}(ri+1, rd)
	}
	wg.Wait()
}

// TestRestartServerRecoversDurableState is the acceptance test of the durable
// subsystem's Store wiring: a deployment with a data directory serves over
// 1000 writes, two servers are then restarted via RestartServer — with
// SimulateCrash the old incarnations' logs are cut at the last synced offset
// and recovery replays segments, exactly the kill -9 path — and the workload
// continues against the recovered servers. The combined pre/post-restart
// history must satisfy per-key atomicity, and the durable counters must show
// real recovery work (a second incarnation, records re-applied from disk).
//
// Safety argument for restarting under fsync=always: every acknowledged
// mutation was fsynced before the ack, so a simulated crash loses nothing a
// client observed — any number of restarts is sound.
func TestRestartServerRecoversDurableState(t *testing.T) {
	store, err := NewStore(Config{
		Servers: 5, Faulty: 1, Readers: 2, Protocol: ProtocolABD,
		DataDir: t.TempDir(),
		Durability: DurabilityOptions{
			Fsync: FsyncAlways,
			// Small segments force rotation mid-workload, so recovery replays
			// a multi-segment log rather than one active file.
			SegmentBytes:  32 << 10,
			SimulateCrash: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	const (
		keyCount   = 8
		writesPre  = 130 // 8 × 130 = 1040 writes before any restart
		writesPost = 20
		readsPre   = 12
		readsPost  = 8
	)
	regs := make([]*Register, keyCount)
	recs := make([]*history.Recorder, keyCount)
	for i := range regs {
		if regs[i], err = store.Register(fmt.Sprintf("durable-%03d", i)); err != nil {
			t.Fatal(err)
		}
		recs[i] = history.NewRecorder()
	}
	phase := func(firstWrite, writes, readsPerReader int) {
		var wg sync.WaitGroup
		for i := range regs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				drivePhase(ctx, t, recs[i], regs[i], firstWrite, writes, readsPerReader)
			}(i)
		}
		wg.Wait()
	}

	phase(0, writesPre, readsPre)
	if t.Failed() {
		return
	}
	pre := store.Stats().Durable
	if pre.Appends == 0 || pre.Fsyncs == 0 {
		t.Fatalf("fsync=always workload logged nothing: %+v", pre)
	}
	if pre.Incarnation != 1 {
		t.Fatalf("pre-restart incarnation = %d, want 1", pre.Incarnation)
	}

	for _, srv := range []int{2, 5} {
		if err := store.RestartServer(srv); err != nil {
			t.Fatalf("RestartServer(%d): %v", srv, err)
		}
	}
	post := store.Stats().Durable
	if post.Incarnation != 2 {
		t.Errorf("post-restart incarnation = %d, want 2", post.Incarnation)
	}
	if post.RecordsRecovered == 0 {
		t.Error("restarted servers recovered no records from disk")
	}
	if post.SegmentsReplayed == 0 {
		t.Error("restarted servers replayed no segments")
	}

	// The restarted servers must serve pre-crash state immediately: with the
	// writer idle, a read of any key returns exactly its last written value.
	res, err := regs[0].Readers()[0].Read(ctx)
	if err != nil {
		t.Fatalf("post-restart read: %v", err)
	}
	if want := fmt.Sprintf("%s#v%d", regs[0].Key(), writesPre); string(res.Value) != want {
		t.Errorf("post-restart read = %q, want %q", res.Value, want)
	}

	phase(writesPre, writesPost, readsPost)
	if t.Failed() {
		return
	}

	histories := make(map[string]history.History, keyCount)
	for i, rec := range recs {
		histories[regs[i].Key()] = rec.History()
	}
	report, err := atomicity.CheckKeyed(histories, atomicity.CheckSWMR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK {
		t.Errorf("atomicity violated across restart for keys %v", report.FailedKeys())
	}
	if want := keyCount * (writesPre + writesPost); report.Writes != want {
		t.Errorf("checker saw %d writes, want %d", report.Writes, want)
	}
}

// TestDurableStoreLayout pins the on-disk layout existing data directories
// recover from: an unpartitioned store logs server i under
// DataDir/default/s<i>.
func TestDurableStoreLayout(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(Config{Servers: 3, Faulty: 1, Readers: 1, Protocol: ProtocolABD, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg, err := store.Register("k")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Writer().Write(testCtx(t), []byte("v")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "default", "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("server 1 wrote nothing under DataDir/default/s1")
	}
}

// TestRestartServerValidation pins the error contract: indexes outside the
// deployment are ErrUnknownServer, and a store without a data directory still
// restarts (the server just comes back empty-handed, which the in-memory
// protocols tolerate by design — quorums cover it, exactly like a crash).
func TestRestartServerValidation(t *testing.T) {
	store, err := NewStore(Config{
		Servers: 5, Faulty: 1, Readers: 1, Protocol: ProtocolABD,
		DataDir: t.TempDir(), Durability: DurabilityOptions{Fsync: FsyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, bad := range []int{0, -1, 6} {
		if err := store.RestartServer(bad); !errors.Is(err, ErrUnknownServer) {
			t.Errorf("RestartServer(%d) = %v, want ErrUnknownServer", bad, err)
		}
	}
	if err := store.RestartServer(3); err != nil {
		t.Errorf("RestartServer(3): %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.RestartServer(1); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("RestartServer after Close = %v, want ErrStoreClosed", err)
	}
}
