// Package driver is the protocol driver registry: the seam between the
// public Store API (and the cmd binaries) and the individual register
// protocol implementations.
//
// Each protocol package (core, abd, maxmin, regular) registers one Driver per
// protocol name in an init function; anything that wants to deploy a protocol
// looks the driver up by name and calls its factories. This is what lets the
// public API and the TCP binaries serve every protocol without a per-protocol
// switch: adding a protocol is adding one driver_register.go file to its
// package plus a blank import at the deployment sites.
//
// The registry puts nothing between a caller and the client engine: every
// protocol's writer is the one protoutil.Writer and every reader the one
// protoutil.Reader, so the client factories hand out those pointers, with the
// engine's own futures and read result. Only servers sit behind an interface
// (Server) — five state types run in the one protoutil.Shell.
package driver

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
)

// ErrTooManyReaders indicates a deployment shape that violates the selected
// protocol's reader bound (the paper's R < S/t − 2, its Byzantine analogue,
// or an implementation limit). It is re-exported by the public fastread
// package so callers can match it with errors.Is.
var ErrTooManyReaders = errors.New("fastread: too many readers for a fast implementation")

// Server is a running protocol server process. A server multiplexes every
// register of the deployment; Stop detaches it from the network and waits for
// its executor to drain.
type Server interface {
	Start()
	Stop()
	// TotalMutations counts state mutations across every register, for the
	// "atomic reads must write" accounting of the paper's Section 8.
	TotalMutations() int64
	// LogFailed reports whether the server's durable log has failed; such a
	// server acknowledges nothing until restarted (always false without one).
	LogFailed() bool
}

// ServerConfig is the uniform server-side deployment description handed to
// every driver: the server shell's own configuration shape, which the
// majority protocols' constructors take as is (see ServerFactory).
type ServerConfig = protoutil.ServerConfig

// ClientConfig is the uniform client-side configuration handed to every
// driver's writer and reader factories: the client engine's own configuration
// shape, which every protocol's constructors take, so factories pass it
// through instead of re-mapping it field by field.
type ClientConfig = protoutil.ClientConfig

// Driver is one register protocol's factory set. All fields are required.
type Driver struct {
	// Name is the registry key ("fast", "abd", ...); it matches the public
	// Protocol.String() names and the cmd binaries' -protocol flag.
	Name string
	// NeedsSignatures reports that the protocol authenticates writes with
	// the writer's key pair: deployments must provide a Signer to writers
	// and a Verifier to servers and readers. The cmd binaries use it to
	// decide which key flags are required.
	NeedsSignatures bool
	// Validate vets a deployment shape against the protocol's requirements,
	// beyond the generic quorum.Config.Validate.
	Validate func(q quorum.Config) error
	// NewServer builds a protocol server bound to the given transport node.
	NewServer func(cfg ServerConfig, node transport.Node) (Server, error)
	// NewWriter builds the per-key writer client.
	NewWriter func(cfg ClientConfig, node transport.Node) (*protoutil.Writer, error)
	// NewReader builds a per-key reader client.
	NewReader func(cfg ClientConfig, node transport.Node) (*protoutil.Reader, error)
}

// ServerFactory turns a protocol package's server constructor into the
// Driver.NewServer factory.
func ServerFactory[S Server](newServer func(ServerConfig, transport.Node) (S, error)) func(ServerConfig, transport.Node) (Server, error) {
	return func(cfg ServerConfig, node transport.Node) (Server, error) {
		s, err := newServer(cfg, node)
		if err != nil {
			// A nil interface, not a typed nil pointer inside one.
			return nil, err
		}
		return s, nil
	}
}

// MajorityValidate returns the Validate function shared by the majority-
// quorum protocols (abd, maxmin, regular): they place no bound on the number
// of readers but need t < S/2 so that any two quorums intersect.
func MajorityValidate(name string) func(q quorum.Config) error {
	return func(q quorum.Config) error {
		if q.Majority() > q.AckQuorum() {
			return fmt.Errorf("fastread: %s requires t < S/2, got %v", name, q)
		}
		return nil
	}
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Driver)
)

// Register adds a driver to the registry. It panics on a duplicate name or an
// incomplete driver: registration happens in protocol package init functions,
// where a mistake is a programming error, not a runtime condition.
func Register(d Driver) {
	if d.Name == "" || d.Validate == nil || d.NewServer == nil || d.NewWriter == nil || d.NewReader == nil {
		panic(fmt.Sprintf("driver: incomplete driver %+v", d))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("driver: duplicate registration for %q", d.Name))
	}
	registry[d.Name] = d
}

// Lookup returns the driver registered under name.
func Lookup(name string) (Driver, bool) {
	mu.RLock()
	defer mu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// Names returns the registered protocol names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
