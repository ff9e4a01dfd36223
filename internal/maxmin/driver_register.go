package maxmin

import "fastread/internal/driver"

// init registers the decentralised max-min register with the driver registry.
func init() {
	driver.Register(driver.Driver{
		Name:      "maxmin",
		Validate:  driver.MajorityValidate("maxmin"),
		NewServer: driver.ServerFactory(NewServer),
		NewWriter: NewWriter,
		NewReader: NewReader,
	})
}
