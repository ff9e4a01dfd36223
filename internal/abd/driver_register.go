package abd

import (
	"fastread/internal/driver"
	"fastread/internal/transport"
)

// init registers the classic two-round-read ABD register with the driver
// registry.
func init() {
	driver.Register(driver.Driver{
		Name:     "abd",
		Validate: driver.MajorityValidate("abd"),
		NewServer: func(cfg driver.ServerConfig, node transport.Node) (driver.Server, error) {
			s, err := NewServer(ServerConfig{ID: cfg.ID, Workers: cfg.Workers, QueueBound: cfg.QueueBound, Durable: cfg.Durable}, node)
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
