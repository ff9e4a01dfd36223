package abd

import "fastread/internal/driver"

// init registers the classic two-round-read ABD register with the driver
// registry.
func init() {
	driver.Register(driver.Driver{
		Name:      "abd",
		Validate:  driver.MajorityValidate("abd"),
		NewServer: driver.ServerFactory(NewServer),
		NewWriter: NewWriter,
		NewReader: NewReader,
	})
}
