//go:build race

package fastread

func init() { raceEnabled = true }
