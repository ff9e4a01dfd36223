package protoutil

import (
	"bytes"
	"slices"
	"sort"

	"fastread/internal/durable"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Test-only views of the shell's log, for the tests that pin the commit rule
// and the recovery of what the live handler applied.

// EndRun ends an executor run by hand: a test that calls Apply outside the
// executor commits what it staged exactly as the executor would.
func (s *Shell[S]) EndRun() error { return s.commitRun() }

// DurableLSN is the log's durable LSN (durable.Log.DurableLSN).
func (s *Shell[S]) DurableLSN() int64 { return s.dlog.DurableLSN() }

// CloseLog closes the log under a running server, the one log failure a test
// can cause without a filesystem seam.
func (s *Shell[S]) CloseLog() error { return s.dlog.Close() }

// LSN is the LSN of the last record logged for the slot's register.
func (sl *Slot[S]) LSN() int64 { return sl.lsn }

// Deliver is one executor run of a single message: the shell's handler with
// out as the run's sender, then the run's commit. The caller keeps the
// message's arena reference and may reuse an arena-less payload once Deliver
// returns, as the handler contract allows.
func (s *Shell[S]) Deliver(m transport.Message, out transport.Sender) error {
	s.handle(m, out)
	return s.commitRun()
}

// Snapshot writes a snapshot of the server's state now.
func (s *Shell[S]) Snapshot() error { return s.dlog.Snapshot() }

// Registers returns every instantiated register's durable state as a
// snapshot would record it, deep-copied, in key order.
func (s *Shell[S]) Registers() []durable.Record {
	var out []durable.Record
	_ = s.dumpRecords(func(r *durable.Record) error {
		c := *r
		c.Cur, c.Prev, c.Sig = bytes.Clone(r.Cur), bytes.Clone(r.Prev), bytes.Clone(r.Sig)
		c.Seen, c.Counters = slices.Clone(r.Seen), slices.Clone(r.Counters)
		out = append(out, c)
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// broadcast is a client's whole broadcast without a client: enqueue, then
// the delivery of the server runs it took, for the tests that pin how one
// request reaches every server.
func broadcast(node transport.Node, servers []types.ProcessID, msg *wire.Message) error {
	runs, err := enqueue(node, servers, msg, nil)
	deliverTaken(runs)
	return err
}
