package regular

import "fastread/internal/driver"

// init registers the fast SWMR regular register with the driver registry.
func init() {
	driver.Register(driver.Driver{
		Name:      "regular",
		Validate:  driver.MajorityValidate("regular"),
		NewServer: driver.ServerFactory(NewServer),
		NewWriter: NewWriter,
		NewReader: NewReader,
	})
}
