// Adapters: every protocol's server is a protoutil.Shell, its writer the
// engine's protoutil.Writer, and every reader embeds a protoutil.Client with
// its own rich result type; the helpers here fold those into the registry's
// uniform Server/Writer/Reader handles and futures, so every driver adapts
// identically.
package driver

import (
	"context"

	"fastread/internal/protoutil"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// ServerFactory turns a protocol package's server constructor into the
// Driver.NewServer factory.
func ServerFactory[S Server](newServer func(ServerConfig, transport.Node) (S, error)) func(ServerConfig, transport.Node) (Server, error) {
	return func(cfg ServerConfig, node transport.Node) (Server, error) {
		s, err := newServer(cfg, node)
		if err != nil {
			// A nil interface, not a typed nil pointer inside one.
			return nil, err
		}
		return s, nil
	}
}

// WriterFactory turns a protocol package's writer constructor into the
// Driver.NewWriter factory.
func WriterFactory(newWriter func(ClientConfig, transport.Node) (*protoutil.Writer, error)) func(ClientConfig, transport.Node) (Writer, error) {
	return func(cfg ClientConfig, node transport.Node) (Writer, error) {
		w, err := newWriter(cfg, node)
		if err != nil {
			return nil, err
		}
		return writerAdapter{w}, nil
	}
}

type writerAdapter struct{ w *protoutil.Writer }

func (a writerAdapter) Write(ctx context.Context, v types.Value) error { return a.w.Write(ctx, v) }

func (a writerAdapter) WriteAsync(ctx context.Context, v types.Value) (WriteFuture, error) {
	f, err := a.w.WriteAsync(ctx, v)
	if err != nil {
		return nil, err
	}
	return writeFuture{f}, nil
}

func (a writerAdapter) Stats() (int64, int64) { return a.w.Stats() }

// writeFuture folds the engine's error-only future into WriteFuture.
type writeFuture struct{ f *protoutil.Future[struct{}] }

func (w writeFuture) Done() <-chan struct{} { return w.f.Done() }

func (w writeFuture) Result(ctx context.Context) error {
	_, err := w.f.Result(ctx)
	return err
}

// AdaptReader wraps a protocol reader's engine into the uniform Reader
// interface: conv converts the protocol's result, and fallbacks (nil for the
// protocols that have none) reports the reads that returned the previous
// value.
func AdaptReader[T any](cl *protoutil.Client[T], conv func(T) ReadResult, fallbacks func() int64) Reader {
	return readerAdapter[T]{cl: cl, conv: conv, fallbacks: fallbacks}
}

// PlainResult converts the majority protocols' shared read result.
func PlainResult(res protoutil.ReadResult) ReadResult {
	return ReadResult{Value: res.Value, Timestamp: res.Timestamp, RoundTrips: res.RoundTrips}
}

type readerAdapter[T any] struct {
	cl        *protoutil.Client[T]
	conv      func(T) ReadResult
	fallbacks func() int64
}

func (a readerAdapter[T]) Read(ctx context.Context) (ReadResult, error) {
	res, err := a.cl.Do(ctx, nil)
	if err != nil {
		return ReadResult{}, err
	}
	return a.conv(res), nil
}

func (a readerAdapter[T]) ReadAsync(ctx context.Context) (ReadFuture, error) {
	f, err := a.cl.Submit(ctx, nil)
	if err != nil {
		return nil, err
	}
	return readFuture[T]{f: f, conv: a.conv}, nil
}

func (a readerAdapter[T]) Stats() (reads, roundTrips, fallbacks int64) {
	reads, roundTrips = a.cl.Stats()
	if a.fallbacks != nil {
		fallbacks = a.fallbacks()
	}
	return reads, roundTrips, fallbacks
}

// readFuture folds a protocol-specific read future into the uniform
// ReadFuture by converting its result once resolved.
type readFuture[T any] struct {
	f    *protoutil.Future[T]
	conv func(T) ReadResult
}

func (r readFuture[T]) Done() <-chan struct{} { return r.f.Done() }

func (r readFuture[T]) Result(ctx context.Context) (ReadResult, error) {
	res, err := r.f.Result(ctx)
	if err != nil {
		return ReadResult{}, err
	}
	return r.conv(res), nil
}
