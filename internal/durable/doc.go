// Package durable gives a protocol server crash-recoverable state: an
// append-only segment WAL, periodic snapshots that truncate dead segments,
// and a persisted monotonic incarnation counter.
//
// # On-disk layout
//
// A data directory holds wal-%016d.seg segment files, snap-%016d.snap
// snapshot files, and an INCARNATION text file. Every segment and snapshot
// starts with a 28-byte header (magic, topology epoch, index-or-watermark,
// CRC32C); records are framed as u32 length + u32 CRC32C(payload) + payload.
// Sealed segments and snapshot files are always fsynced; only the active
// segment's tail is subject to the configured fsync policy. Because the log
// is append-only, any unreadable frame can only be a torn tail (or external
// corruption) — recovery stops cleanly at the first bad frame and trims it.
//
// # Stage, Commit, Append
//
// Writing a record and making it durable are two steps. Log.Stage assigns the
// next LSN and writes the record to the active segment; Log.Commit makes
// everything staged so far as durable as the fsync policy promises — under
// "always" one fsync for all of it, under "interval" and "never" nothing
// beyond what the ticker or the OS will do — and seals a full segment.
// Log.Append is Stage then Commit: one record, one fsync. A protocol server
// stages during an executor run and commits once at its end (see
// protoutil.Shell), and the rule it builds on is stated on Log.Commit: an ack
// leaves a server only after the commit that covers its record returned nil.
// Once the write-ahead path has failed (short write, failed fsync, a segment
// that could not be sealed) no Commit succeeds again: the file is in an
// unknown state and the server must fall silent rather than guess.
//
// # Replay discipline
//
// Log.Stage assigns each record a monotone LSN under the log lock, so LSN
// order is file order. A KindState snapshot record carries the LSN of the
// last delta its register reflects; during recovery a server must skip any
// KindDelta whose LSN is not greater than the restored state's. That rule is
// what makes the snapshot-while-appending overlap idempotent: a snapshot
// dump races ongoing appends by design, and without the LSN guard a replayed
// pre-snapshot delta would be applied a second time on top of newer state —
// for the fast register that would pollute a newer timestamp's seen set and
// could make the fast-read predicate hold spuriously.
//
// # Record ownership
//
// A Record handed to Hooks.Apply is valid only for the duration of the call
// and its byte fields alias the replay buffer: clone whatever the state
// retains, exactly as the live receive path clones at its retention point. A
// Record passed to Log.Stage (or Append) or emitted by Hooks.Dump is fully
// encoded before the call returns, so callers may alias live state (the
// server's state-map lock, held across both the mutation and the Stage, keeps
// the bytes stable for that window).
package durable
