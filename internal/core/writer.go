package core

import (
	"fmt"

	"fastread/internal/protoutil"
	"fastread/internal/sig"
	"fastread/internal/transport"
)

// Errors returned by clients of the fast register: the engine's, under the
// names this package's callers match.
var (
	ErrBottomWrite = protoutil.ErrBottomWrite
	ErrNotWriter   = protoutil.ErrNotWriter
	ErrNotReader   = protoutil.ErrNotReader
)

// WriterConfig configures the single writer process w: Quorum and Key, Depth
// for WriteAsync, and Byzantine + Signer for the arbitrary-failure variant
// (Figure 5), which signs each written timestamp/value pair.
type WriterConfig = protoutil.ClientConfig

// Writer is the writer-side of the fast algorithms (Figure 2 / Figure 5
// lines 1-8): the engine's single-writer client waiting for S−t
// acknowledgements, one round-trip per write.
type Writer = protoutil.Writer

// NewWriter creates the writer client bound to the given transport node.
func NewWriter(cfg WriterConfig, node transport.Node) (*Writer, error) {
	var signer *sig.Signer
	if cfg.Byzantine {
		if cfg.Signer == nil {
			return nil, fmt.Errorf("core: the arbitrary-failure writer requires a signer")
		}
		signer = cfg.Signer
	}
	return protoutil.NewWriter("core", cfg.Quorum.AckQuorum(), signer, cfg, node)
}
