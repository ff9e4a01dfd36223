package fastread

import (
	"fastread/internal/driver"
	"fastread/internal/fault"
	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// newByzantineServer builds the malicious stand-in for one server identity
// listed in Config.Byzantine. It satisfies driver.Server, so the store's
// lifecycle code treats it exactly like an honest server.
func newByzantineServer(cfg Config, behavior ByzantineBehavior, id types.ProcessID, node transport.Node) (driver.Server, error) {
	fcfg := fault.ByzantineConfig{
		ID:       id,
		Workers:  cfg.ServerWorkers,
		Behavior: behavior,
		Readers:  cfg.Readers,
	}
	if cfg.Readers >= 1 {
		// MemoryLoss needs a victim; reader 1 by convention.
		fcfg.Victim = types.Reader(1)
	}
	if behavior == fault.BehaviorForgeTimestamp {
		// Forgeries are signed with a key that is NOT the writer's — the
		// strongest forgery unforgeability still defeats.
		keys := sig.MustKeyPair()
		fcfg.ForgerKeys = &keys
	}
	return fault.NewByzantineServer(fcfg, node)
}
