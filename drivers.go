package fastread

// The protocol implementations live behind the internal/driver registry;
// importing them here (and only here) registers every protocol the public
// API serves. Adding a protocol is adding its package's driver registration
// plus one line below — store.go itself contains no per-protocol code.
import (
	_ "fastread/internal/abd"    // registers "abd" and "regular"
	_ "fastread/internal/core"   // registers "fast" and "fast-byz"
	_ "fastread/internal/maxmin" // registers "maxmin"
)
