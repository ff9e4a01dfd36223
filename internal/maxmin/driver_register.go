package maxmin

import (
	"context"

	"fastread/internal/driver"
	"fastread/internal/transport"
)

// init registers the decentralised max-min register with the driver registry.
func init() {
	driver.Register(driver.Driver{
		Name:     "maxmin",
		Validate: driver.MajorityValidate("maxmin"),
		NewServer: func(cfg driver.ServerConfig, node transport.Node) (driver.Server, error) {
			s, err := NewServer(ServerConfig{ID: cfg.ID, Quorum: cfg.Quorum, Workers: cfg.Workers, QueueBound: cfg.QueueBound, Durable: cfg.Durable}, node)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
		NewWriter: func(cfg driver.ClientConfig, node transport.Node) (driver.Writer, error) {
			w, err := NewKeyedWriter(cfg.Key, cfg.Quorum, cfg.Depth, node, nil)
			if err != nil {
				return nil, err
			}
			return driver.AdaptWriter(w), nil
		},
		NewReader: func(cfg driver.ClientConfig, node transport.Node) (driver.Reader, error) {
			r, err := NewKeyedReader(cfg.Key, cfg.Quorum, cfg.Depth, node, nil)
			if err != nil {
				return nil, err
			}
			r.SeedNonce(cfg.Nonce)
			return maxminReaderHandle{r}, nil
		},
	})
}

// maxminReaderHandle adapts the max-min reader to the uniform driver result.
type maxminReaderHandle struct{ r *Reader }

func (h maxminReaderHandle) Read(ctx context.Context) (driver.ReadResult, error) {
	res, err := h.r.Read(ctx)
	if err != nil {
		return driver.ReadResult{}, err
	}
	return maxminResult(res), nil
}

func (h maxminReaderHandle) ReadAsync(ctx context.Context) (driver.ReadFuture, error) {
	f, err := h.r.ReadAsync(ctx)
	if err != nil {
		return nil, err
	}
	return driver.ReadFutureOf(f, maxminResult), nil
}

// maxminResult adapts the max-min reader's result to the uniform driver
// result.
func maxminResult(res ReadResult) driver.ReadResult {
	return driver.ReadResult{Value: res.Value, Timestamp: res.Timestamp, RoundTrips: res.RoundTrips}
}

func (h maxminReaderHandle) Stats() (reads, roundTrips, fallbacks int64) {
	r, t := h.r.Stats()
	return r, t, 0
}
