package abd

import (
	"fastread/internal/driver"
	"fastread/internal/transport"
)

// init registers the classic two-round-read ABD register with the driver
// registry.
func init() {
	driver.Register(driver.Driver{
		Name:      "abd",
		Validate:  driver.MajorityValidate("abd"),
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
