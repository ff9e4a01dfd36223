// Package driver is the protocol driver registry: the seam between the
// public Store/Cluster API (and the cmd binaries) and the individual register
// protocol implementations.
//
// Each protocol package (core, abd, maxmin, regular) registers one Driver per
// protocol name in an init function; anything that wants to deploy a protocol
// looks the driver up by name and uses its uniform factories. This is what
// lets the public API and the TCP binaries serve every protocol without a
// per-protocol switch: adding a protocol is adding one driver.go file to its
// package plus a blank import at the deployment sites.
//
// The handle interfaces (Server, Writer, Reader) are the least common
// denominator of the four protocols. Servers satisfy theirs directly; every
// protocol's writer is the one protoutil.Writer and every reader embeds the
// one protoutil.Client engine, so async.go adapts both once for all drivers
// (a reader supplies only the conversion of its result struct).
package driver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
)

// ErrTooManyReaders indicates a deployment shape that violates the selected
// protocol's reader bound (the paper's R < S/t − 2, its Byzantine analogue,
// or an implementation limit). It is re-exported by the public fastread
// package so callers can match it with errors.Is.
var ErrTooManyReaders = errors.New("fastread: too many readers for a fast implementation")

// ReadResult is the uniform outcome of a read, independent of which protocol
// produced it.
type ReadResult struct {
	// Value is the value read; ⊥ (nil) means the register still holds its
	// initial value.
	Value types.Value
	// Timestamp is the logical timestamp of the returned value (0 for ⊥).
	Timestamp types.Timestamp
	// RoundTrips is the number of client↔server round-trips the read used.
	RoundTrips int
	// UsedFallback is true when a fast read returned the previous value
	// because the seen-set predicate did not hold for the newest one. Always
	// false for the non-fast protocols.
	UsedFallback bool
}

// Server is a running protocol server process. A server multiplexes every
// register of the deployment; Stop detaches it from the network and waits for
// its executor to drain.
type Server interface {
	Start()
	Stop()
	// Workers reports the number of key-shard workers the server's executor
	// actually runs (after defaulting), for operator-facing logs.
	Workers() int
	// TotalMutations counts state mutations across every register, for the
	// "atomic reads must write" accounting of the paper's Section 8.
	// Protocols that do not track mutations report 0.
	TotalMutations() int64
	// QueueSheds counts requests shed by the server's bounded worker queues
	// (always 0 unless ServerConfig.QueueBound was set).
	QueueSheds() int64
	// LogFailed reports whether the server's durable log has failed; such a
	// server acknowledges nothing until restarted (always false without one).
	LogFailed() bool
}

// WriteFuture is one submitted write's pending resolution.
type WriteFuture interface {
	// Done closes when the write resolves.
	Done() <-chan struct{}
	// Result blocks until the write resolves and returns its outcome. If ctx
	// ends first the write's wait is abandoned (sibling in-flight operations
	// on the handle are untouched) and the context error returned.
	Result(ctx context.Context) error
}

// ReadFuture is one submitted read's pending resolution.
type ReadFuture interface {
	// Done closes when the read resolves.
	Done() <-chan struct{}
	// Result blocks until the read resolves and returns its outcome. If ctx
	// ends first the read is aborted (sibling in-flight operations on the
	// handle are untouched) and the context error returned.
	Result(ctx context.Context) (ReadResult, error)
}

// Writer is a register's single write handle. WriteAsync pipelines: up to
// the configured depth of writes stay in flight per handle, applied by
// servers in submission order (the SWMR regime survives pipelining). Write
// is WriteAsync at depth one.
type Writer interface {
	Write(ctx context.Context, v types.Value) error
	WriteAsync(ctx context.Context, v types.Value) (WriteFuture, error)
	// Stats reports completed writes and the round-trips they used.
	Stats() (writes, roundTrips int64)
}

// Reader is one of a register's read handles. ReadAsync pipelines: up to the
// configured depth of reads stay in flight per handle, each an independent
// state machine keyed by the protocol's per-operation nonce. Read is
// ReadAsync at depth one.
type Reader interface {
	Read(ctx context.Context) (ReadResult, error)
	ReadAsync(ctx context.Context) (ReadFuture, error)
	// Stats reports completed reads, the round-trips they used, and how many
	// reads fell back to the previous value (0 for non-fast protocols).
	Stats() (reads, roundTrips, fallbacks int64)
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
	NewWriter func(cfg ClientConfig, node transport.Node) (Writer, error)
	// NewReader builds a per-key reader client.
	NewReader func(cfg ClientConfig, node transport.Node) (Reader, error)
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
