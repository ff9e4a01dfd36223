// Package abd implements the classic quorum-based register constructions the
// paper uses as its baseline and as the contrast for the "atomic reads must
// write" discussion — the two ABD atomic registers and the regular register,
// all served by the one Server:
//
//   - The single-writer multi-reader (SWMR) register of Attiya, Bar-Noy and
//     Dolev [1995], adapted — as in the paper's introduction — to the
//     client/server setting: writes take one round-trip, reads take two (a
//     query phase followed by a write-back phase that propagates the value
//     the read is about to return to a quorum of servers).
//   - The multi-writer multi-reader (MWMR) generalisation in the style of
//     Lynch and Shvartsman [1997]: timestamps become (sequence, writer-rank)
//     pairs, writes need a query phase to discover the current maximum
//     timestamp (two round-trips), and reads query then write back (two
//     round-trips).
//   - The single-writer regular register of Section 8 (driver "regular"):
//     the SWMR register whose read stops after its query round
//     (protoutil.HighestRead). One round-trip, but two reads may see a
//     new/old inversion, which atomicity forbids.
//
// All use majority quorums and therefore tolerate t < S/2 crash failures
// for any number of readers — slower than the paper's fast algorithm but
// with no bound on R. The bound is checked by the drivers' Validate, not by
// the constructors. Section 7 of the paper proves the two-round read (or
// write) is unavoidable for MWMR registers; experiment E5 exercises exactly
// that contrast.
package abd
