// Package core implements the paper's primary contribution: fast
// single-writer multi-reader (SWMR) atomic register implementations in which
// every read and every write completes in a single communication round-trip.
//
// Two variants are provided, exactly following the paper:
//
//   - The crash-failure algorithm of Figure 2, correct whenever the number of
//     readers satisfies R < S/t − 2 (equivalently S > (R+2)·t).
//   - The arbitrary-failure algorithm of Figure 5, in which the writer signs
//     each timestamp/value pair; it is correct whenever
//     S > (R+2)·t + (R+1)·b, where b ≤ t of the faulty servers may behave
//     maliciously.
//
// The three process roles are:
//
//   - Server (server.go): stores the latest timestamp, its value tags and the
//     seen set (the clients it has replied to since last adopting a
//     timestamp), plus a per-client counter used to ignore stale messages.
//   - Writer (writer.go): increments its local timestamp, broadcasts the
//     signed (in the arbitrary-failure variant) value and waits for S−t
//     acknowledgements.
//   - Reader (reader.go): broadcasts a read request carrying the highest
//     timestamp it has previously observed (a lightweight "write back" that
//     costs no extra round), collects S−t acknowledgements, and decides —
//     using the seen-set predicate in predicate.go — whether returning the
//     highest observed timestamp is safe or whether it must return the
//     previous one.
//
// The predicate is a local decision and is priced like one. Its witnesses are
// client sets, but only intersections of the seen sets a read actually
// received can be minimal ones, so predicate.go walks that closed-set lattice
// over uint32 masks — a single set when the servers agree, the steady state —
// instead of the 2^(R+1) client subsets. At S=19 t=1 R=16 that took one
// evaluation from 2.4 ms and 1 MB to under 6 µs and 1 KB through
// EvaluatePredicate (under 1 µs and no allocation on the reader's reused
// scratch), and the many_readers_inmem benchmark workload from ~590 to
// ~12 600 reads/s (read p50 1.9 ms → 72 µs, peak RSS 93 → 24 MB).
//
// The value returned for timestamp maxTS−1 is available without a second
// round because every write carries both the new value and the immediately
// preceding one ("two tags", end of Section 4 of the paper).
package core
