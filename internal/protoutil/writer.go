package protoutil

import (
	"context"
	"fmt"

	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Writer is the single-writer client of every protocol: one round-trip per
// write (Figure 2 / Figure 5 lines 1-8, and the ABD write the majority
// protocols share), differing between protocols only in the quorum it waits
// for and in whether the written pair is signed. WriteAsync keeps up to the
// configured depth of writes in flight; timestamps are issued and requests
// broadcast under the engine's handle mutex, and the transports preserve
// per-link FIFO, so servers adopt pipelined writes in timestamp order — the
// single-writer regime of the model survives pipelining.
type Writer struct {
	*Client[struct{}]
	key    string
	signer *sig.Signer // nil unless the arbitrary-failure variant signs

	// prev is the value of the previous write that reached the wire (touched
	// only in begin and commit, under the engine's handle mutex).
	prev types.Value
}

// NewWriter creates protocol `name`'s writer, completing a write once `need`
// servers acknowledged it and signing every written pair if signer is not
// nil.
func NewWriter(name string, need int, signer *sig.Signer, cfg ClientConfig, node transport.Node) (*Writer, error) {
	w := &Writer{key: cfg.Key, signer: signer, prev: types.Bottom()}
	cl, err := NewClient(cfg, node, Rounds[struct{}]{
		Name: name + " write", Role: types.RoleWriter, Need: need, Begin: w.begin, Commit: w.commit, Accept: w.accept,
	})
	if err != nil {
		return nil, err
	}
	w.Client = cl
	return w, nil
}

// Write stores v in the register: WriteAsync at depth one, then wait (Do).
func (w *Writer) Write(ctx context.Context, v types.Value) error {
	if v.IsBottom() {
		return ErrBottomWrite
	}
	_, err := w.Do(ctx, v)
	return err
}

// WriteAsync submits one write and returns its future without waiting for
// the quorum. Cancelling one write's ctx abandons only that write's wait (the
// value may still take effect, exactly as any interrupted write).
func (w *Writer) WriteAsync(ctx context.Context, v types.Value) (*Future[struct{}], error) {
	if v.IsBottom() {
		return nil, ErrBottomWrite
	}
	return w.Submit(ctx, v)
}

// begin builds (write, ts, v, prev): Figure 2 lines 3-6.
func (w *Writer) begin(c *Call[struct{}]) error {
	ts := types.Timestamp(c.NextNonce())
	// One owned copy of the caller's value: it is the transient request's Cur
	// and then, through commit, the remembered prev of the NEXT submission.
	cur := c.Arg.Clone()
	c.Arg = cur
	c.Req = wire.Message{Op: wire.OpWrite, Key: w.key, TS: ts, Cur: cur, Prev: w.prev}
	if w.signer != nil {
		signature, err := w.signer.SignKeyed(w.key, ts, cur, w.prev)
		if err != nil {
			return fmt.Errorf("sign ts=%d: %w", ts, err)
		}
		c.Req.WriterSig = signature
	}
	return nil
}

// commit is Figure 2 line 7, moved to submission time: once the request is on
// the wire the next write takes the next timestamp and this value as its prev,
// whether or not this write has completed. A write that could not be sent —
// the engine has taken its timestamp back — changes nothing, so the handle
// stays usable. (A write that was sent and then failed leaves a timestamp gap,
// which servers tolerate: they adopt any strictly newer timestamp.)
func (w *Writer) commit(c *Call[struct{}]) { w.prev = c.Arg }

// accept takes ts' in [ts, issued] rather than an exact match. ts' ≥ ts: a
// reader's write-back of a LATER pipelined write can reach a server before
// this request does, and the server then acknowledges with the newer adopted
// timestamp — which still proves this write's value is superseded-or-stored
// there (the superseding value is this writer's own later submission).
// ts' ≤ issued: a timestamp this incarnation never issued means the servers
// hold a PREVIOUS incarnation's newer value — the model's single writer does
// not restart, and a restarted writer process (timestamps reset to 1) must
// time out visibly instead of reporting success for values the servers
// discarded. (An EQUAL-timestamp collision — both incarnations at the same
// write count — is indistinguishable in the wire vocabulary and remains a
// silent no-op: recovering the writer's timestamp state is the operator's job
// in the SWMR model.) The writer's rCounter is always 0 (Section 4), which the
// engine has already matched.
func (w *Writer) accept(c *Call[struct{}], _ types.ProcessID, m *wire.Message) bool {
	return m.TS >= c.Req.TS && int64(m.TS) <= c.Issued()
}
