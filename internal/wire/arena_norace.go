//go:build !race

package wire

// poisonReleased is off outside race builds (see arena_race.go).
const poisonReleased = false
