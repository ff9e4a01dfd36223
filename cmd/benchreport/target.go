package main

import (
	"context"

	"fastread"
	"fastread/internal/core"
	"fastread/internal/protoutil"
)

// readOut is what the harness needs of a read result, whichever API
// produced it.
type readOut struct {
	version    int64
	value      []byte
	roundTrips int
}

// target is the system under test as the client loop sees it: keys and
// reader handles by index, blocking and asynchronous operations. Two
// implementations exist — the public Store (every timed run) and a
// deployment assembled by hand from the layers' constructors (the traced
// run) — and neither allocates on behalf of the harness, so allocs_per_op
// counts the program's allocations only.
type target interface {
	write(ctx context.Context, k int, v []byte) error
	read(ctx context.Context, k, reader int) (readOut, error)
	submitWrite(ctx context.Context, k int, v []byte, p *pending) error
	submitRead(ctx context.Context, k, reader int, p *pending) error
	close() error
}

// pending is one submitted asynchronous operation. Exactly one future field
// is set; the concrete pointers avoid an adapter allocation per operation.
type pending struct {
	storeWrite *fastread.WriteFuture
	storeRead  *fastread.ReadFuture
	coreWrite  *protoutil.Future[struct{}]
	coreRead   *protoutil.Future[core.ReadResult]

	// span is the traced run's record of the operation (trace.go); nil on
	// the timed runs.
	span *opSpan
}

// wait blocks until the operation resolves. Writes return a zero readOut.
func (p *pending) wait(ctx context.Context) (out readOut, err error) {
	switch {
	case p.storeWrite != nil:
		err = p.storeWrite.Result(ctx)
	case p.storeRead != nil:
		var res fastread.ReadResult
		res, err = p.storeRead.Result(ctx)
		out = readOut{version: res.Version, value: res.Value, roundTrips: res.RoundTrips}
	case p.coreWrite != nil:
		_, err = p.coreWrite.Result(ctx)
	case p.coreRead != nil:
		var res core.ReadResult
		res, err = p.coreRead.Result(ctx)
		out = readOut{version: int64(res.Timestamp), value: res.Value, roundTrips: res.RoundTrips}
	}
	if p.span != nil {
		p.span.finish(out, err)
	}
	*p = pending{}
	return out, err
}

// storeTarget drives a fastread.Store through its public handles.
type storeTarget struct {
	store   *fastread.Store
	writers []fastread.Writer
	readers [][]fastread.Reader // [key][reader-1]
}

func (t *storeTarget) write(ctx context.Context, k int, v []byte) error {
	return t.writers[k].Write(ctx, v)
}

func (t *storeTarget) read(ctx context.Context, k, reader int) (readOut, error) {
	res, err := t.readers[k][reader-1].Read(ctx)
	return readOut{version: res.Version, value: res.Value, roundTrips: res.RoundTrips}, err
}

func (t *storeTarget) submitWrite(ctx context.Context, k int, v []byte, p *pending) error {
	f, err := t.writers[k].WriteAsync(ctx, v)
	p.storeWrite = f
	return err
}

func (t *storeTarget) submitRead(ctx context.Context, k, reader int, p *pending) error {
	f, err := t.readers[k][reader-1].ReadAsync(ctx)
	p.storeRead = f
	return err
}

func (t *storeTarget) close() error { return t.store.Close() }
