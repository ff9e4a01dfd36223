// Package adversary turns the paper's lower-bound proofs into executable
// schedules.
//
// The proofs of Proposition 5 (crash model), Proposition 10 (arbitrary
// failures) and Proposition 11 (multiple writers) construct explicit partial
// runs — sequences of message deliveries, delays and failures — that force
// any fast implementation into an atomicity violation when the resilience
// bound is not met. This package drives real protocol code through those
// schedules and records the resulting operation history, which
// internal/atomicity then judges.
//
// A schedule runs on a stage (stage.go): a deployment on a virtual clock that
// the schedule itself steps, built by internal/sim's own recipe
// (sim.Replayable). Links are held and released on the in-memory network
// that recipe builds and returns, operations are submitted as futures, and
// "the message has been processed" is not polled or slept for: settle steps
// the clock until no event remains, and the clock fires one delivery at a
// time, on one goroutine, running the delivery's whole cascade — the
// server's handler, the client's completion — inside the event. A
// violation is a predicate over the recorded history, so that history must
// be the run the proof constructs every time: the same (S, t, b, R, reader)
// reproduces the same history, timestamps and narrative, byte for byte.
//
// Propositions 5 and 10 are one schedule (construction.go) over a partition
// of the servers (partition.go); the crash model is the case with no
// malicious blocks. Three register implementations can be placed under it:
//
//   - the paper's own fast algorithm (internal/core), to show that the
//     schedule is harmless while R is below the bound and harmful at or
//     beyond it;
//   - a "naive" fast reader that skips the seen-set predicate and simply
//     returns the highest timestamp it sees (the strawman from the paper's
//     introduction), to show why the predicate is needed at all;
//   - for the multi-writer case (mwmr.go), a naive fast MWMR register versus
//     the two-round ABD MWMR register.
package adversary
