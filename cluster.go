package fastread

import (
	"fastread/internal/transport"
)

// Cluster is a complete in-memory deployment of ONE register: S server
// processes, the single writer and R readers, all attached to an in-memory
// asynchronous network. It is the single-register entry point of the
// library, implemented as a thin wrapper around a Store serving only the
// default register (the empty key); use NewStore directly to multiplex many
// named registers over the same server processes.
type Cluster struct {
	store *Store
	reg   *Register
}

// NewCluster builds and starts a single-register deployment according to
// cfg. Its servers run the Store's default of one worker each, which suits a
// lone register: all of its traffic carries the default key and would land on
// one key shard anyway.
func NewCluster(cfg Config) (*Cluster, error) {
	store, err := NewStore(cfg)
	if err != nil {
		return nil, err
	}
	reg, err := store.Register("")
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	return &Cluster{store: store, reg: reg}, nil
}

// Store returns the underlying multi-register store; registers created
// through it share the cluster's servers with the cluster's own register.
func (c *Cluster) Store() *Store { return c.store }

// Writer returns the cluster's single write handle.
func (c *Cluster) Writer() Writer { return c.reg.Writer() }

// Reader returns the read handle of reader ri (1-based).
func (c *Cluster) Reader(i int) (Reader, error) { return c.reg.Reader(i) }

// Readers returns all read handles in index order.
func (c *Cluster) Readers() []Reader { return c.reg.Readers() }

// CrashServer crash-stops server si (1-based): it stops receiving and
// sending messages permanently. Crashing more than Faulty servers voids the
// deployment's guarantees, exactly as in the model.
func (c *Cluster) CrashServer(i int) error { return c.store.CrashServer(i) }

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.store.Config() }

// Stats aggregates client-side counters and network delivery counts.
func (c *Cluster) Stats() Stats { return c.store.Stats() }

// Network exposes the underlying in-memory network for tests, fault
// injection and the adversarial schedules. On backends without an in-memory
// network (TCP) it reports ErrUnsupported.
func (c *Cluster) Network() (*transport.InMemNetwork, error) { return c.store.Network() }

// Close shuts the cluster down: all servers stop and the network is closed.
func (c *Cluster) Close() error { return c.store.Close() }
