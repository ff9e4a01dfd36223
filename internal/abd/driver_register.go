package abd

import "fastread/internal/driver"

// init registers the package's two single-writer registers with the driver
// registry: the same Server and majority writer, and a read that writes back
// ("abd", atomic) or does not ("regular").
func init() {
	driver.Register(driver.Driver{
		Name:      "abd",
		Validate:  driver.MajorityValidate("abd"),
		NewServer: driver.ServerFactory(NewServer),
		NewWriter: NewWriter,
		NewReader: NewReader,
	})
	driver.Register(driver.Driver{
		Name:      "regular",
		Validate:  driver.MajorityValidate("regular"),
		NewServer: driver.ServerFactory(NewServer),
		NewWriter: newRegularWriter,
		NewReader: newRegularReader,
	})
}
