package maxmin

import (
	"fastread/internal/driver"
	"fastread/internal/transport"
)

// init registers the decentralised max-min register with the driver registry.
func init() {
	driver.Register(driver.Driver{
		Name:      "maxmin",
		Validate:  driver.MajorityValidate("maxmin"),
		NewServer: driver.ServerFactory(NewServer),
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
