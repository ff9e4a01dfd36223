package core

import (
	"fmt"

	"fastread/internal/driver"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
)

// init registers the paper's two fast protocols with the driver registry:
// the crash-tolerant register of Figure 2 ("fast") and the arbitrary-failure
// variant of Figure 5 ("fast-byz"). They share every factory except the
// Byzantine flag, which turns on writer signatures end to end.
func init() {
	driver.Register(fastDriver("fast", false))
	driver.Register(fastDriver("fast-byz", true))
}

// fastDriver builds the driver for one of the two fast variants.
func fastDriver(name string, byzantine bool) driver.Driver {
	return driver.Driver{
		Name:            name,
		NeedsSignatures: byzantine,
		Validate: func(q quorum.Config) error {
			if !q.FastReadPossible() {
				return fmt.Errorf("%w: %v (max fast readers = %d)",
					driver.ErrTooManyReaders, q, quorum.MaxFastReaders(q.Servers, q.Faulty, q.Malicious))
			}
			if q.Readers+1 > MaxPredicateUnion {
				return fmt.Errorf("%w: predicate evaluator supports at most %d readers",
					driver.ErrTooManyReaders, MaxPredicateUnion-1)
			}
			return nil
		},
		NewServer: func(cfg driver.ServerConfig, node transport.Node) (driver.Server, error) {
			s, err := NewServer(ServerConfig{
				ID:         cfg.ID,
				Readers:    cfg.Quorum.Readers,
				Byzantine:  byzantine,
				Verifier:   cfg.Verifier,
				Workers:    cfg.Workers,
				QueueBound: cfg.QueueBound,
				Durable:    cfg.Durable,
			}, node)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
		NewWriter: func(cfg driver.ClientConfig, node transport.Node) (*Writer, error) {
			cfg.Byzantine = byzantine
			return NewWriter(cfg, node)
		},
		NewReader: func(cfg driver.ClientConfig, node transport.Node) (*protoutil.Reader, error) {
			cfg.Byzantine = byzantine
			r, err := NewReader(cfg, node)
			if err != nil {
				return nil, err
			}
			return r.Reader, nil
		},
	}
}
