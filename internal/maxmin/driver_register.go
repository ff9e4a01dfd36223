package maxmin

import (
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
		NewWriter: driver.WriterFactory(NewWriter),
		NewReader: func(cfg driver.ClientConfig, node transport.Node) (driver.Reader, error) {
			r, err := NewReader(cfg, node)
			if err != nil {
				return nil, err
			}
			return driver.AdaptReader(r.Client, driver.PlainResult, nil), nil
		},
	})
}
