package fastread

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"fastread/internal/seam"
	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/transport/socknet"
	"fastread/internal/types"
)

// ErrUnsupported indicates a capability the store's transport backend does
// not provide: fault injection (CrashServer) exists only on the in-memory
// network, where the adversary controls every delivery. Match it with
// errors.Is.
var ErrUnsupported = errors.New("fastread: operation not supported by this transport backend")

// Transport selects the message-passing backend a Store runs on. The
// protocols themselves are transport-agnostic — they only ever see the node
// interface — so the same deployment configuration runs unchanged over any
// backend:
//
//   - InMemory (the default): the paper's asynchronous network as a
//     simulator, with crash injection (CrashServer); the simulator
//     (internal/sim) also holds links and runs it on a virtual clock.
//   - TCP: every process is a real socket endpoint; delivery is as reliable
//     as the connections, and fault injection degrades to ErrUnsupported
//     (crash a process by killing it, partition by firewalling — the real
//     world is the fault injector).
//   - UDP: the raw-speed tier; real datagram sockets with batched syscalls,
//     loss mapped directly onto the paper's asynchronous model, and receive
//     filters for packet-loss injection.
//
// A Transport value is a reusable factory: each NewStore call opens an
// independent deployment from it. Implementations are provided by this
// package only.
type Transport interface {
	// String names the backend ("inmem", "tcp", "udp").
	String() string

	// connect opens one deployment's network session. Sealed: transports are
	// constructed with InMemory, TCP or UDP.
	connect(cfg Config) (transportSession, error)
}

// transportSession is one store's private view of its backend: a way to
// attach processes, the capability hooks, and shutdown.
type transportSession interface {
	join(id types.ProcessID) (transport.Node, error)
	close() error
	// crash crash-stops a process, or reports ErrUnsupported.
	crash(id types.ProcessID) error
	// stats reports the backend's counters so far, summed over the
	// session's nodes.
	stats() transport.Stats
}

func init() {
	seam.InMemory = func(net *transport.InMemNetwork) any { return &inMemTransport{net: net} }
}

// InMemory returns the in-memory transport backend: the paper's asynchronous
// reliable network as a single-process simulator, with every fault-injection
// capability available. It is the default when Config.Transport is nil.
func InMemory() Transport { return &inMemTransport{} }

// inMemTransport builds one in-memory network per store. With net set it
// attaches its one store to that network instead, which its builder keeps
// (internal/seam): the simulator's clocked network. A second deployment on
// it fails to join.
type inMemTransport struct {
	net *transport.InMemNetwork
}

func (t *inMemTransport) String() string { return "inmem" }

func (t *inMemTransport) connect(cfg Config) (transportSession, error) {
	net := t.net
	if net == nil {
		net = transport.NewInMemNetwork()
	}
	transport.WithMailboxBound(cfg.QueueBound)(net)
	return &inMemSession{net: net}, nil
}

// inMemSession is the in-memory backend's session: a thin veneer over
// InMemNetwork with every capability present.
type inMemSession struct {
	net *transport.InMemNetwork
}

func (s *inMemSession) join(id types.ProcessID) (transport.Node, error) { return s.net.Join(id) }
func (s *inMemSession) close() error                                    { return s.net.Close() }
func (s *inMemSession) stats() transport.Stats                          { return s.net.Stats() }

func (s *inMemSession) crash(id types.ProcessID) error {
	s.net.Isolate(id)
	return nil
}

// TCP returns a transport backend that attaches every process of the
// deployment to a real TCP socket. The deployment then behaves exactly as a
// distributed one — length-prefixed frames over per-peer connections, lazy
// dialling, per-peer write batching — while the Store API stays unchanged.
//
// NewStore starts the WHOLE deployment (servers, writer, readers) in the
// calling process, each identity on its own listening socket, so every book
// address must be bindable on the local machine. Deployments spanning
// processes or machines run the same protocols through cmd/regserver and
// cmd/regclient instead.
//
// book maps process identities to "host:port" listen addresses using the
// textual identity form: "w" for the writer, "r1".."rR" for the readers and
// "s1".."sS" for the servers (the identity encodes the role). Identities
// missing from the book listen on an ephemeral loopback port and publish the
// chosen address to the deployment's shared live address table; passing a
// nil or empty book therefore runs the entire deployment over real sockets
// on 127.0.0.1 with no port assignment at all — the loopback mode the
// integration tests and examples use.
//
// Crash injection (CrashServer) reports ErrUnsupported on this backend.
func TCP(book map[string]string) Transport {
	return &socketTransport{backend: "tcp", book: maps.Clone(book)}
}

// UDPOption tweaks the UDP backend.
type UDPOption func(*socketTransport)

// WithReceiveFilter installs a receive-side datagram filter on every process
// of the deployment: keep is called with the textual identity of each
// datagram's claimed sender ("w", "r1", "s3", ...) and returning false drops
// the datagram exactly as if the network had lost it. It exists for
// packet-loss injection in tests — the protocols must complete through the
// surviving quorum — and must be safe for concurrent use.
func WithReceiveFilter(keep func(from string) bool) UDPOption {
	return func(t *socketTransport) {
		t.filter = func(from types.ProcessID) bool { return keep(from.String()) }
	}
}

// UDP returns the raw-speed transport backend: every process of the
// deployment is a UDP socket endpoint exchanging datagrams with batched
// syscalls (sendmmsg/recvmmsg on Linux, falling back to per-datagram I/O
// elsewhere). Where the TCP backend layers the protocols over reliable
// streams, UDP maps the paper's asynchronous lossy network directly onto the
// wire: a datagram either arrives whole or never, senders never block or
// retransmit, and the protocols tolerate loss by construction (they only
// ever wait for S−t of S replies). Per-sender sequence windows restore
// at-most-once delivery, which UDP alone does not guarantee and the quorum
// counters require.
//
// book follows the same conventions as TCP's: textual identities mapped to
// "host:port" addresses, with missing identities bound to ephemeral loopback
// ports published through the deployment's live address table; a nil book
// runs the whole deployment over real datagram sockets on 127.0.0.1.
//
// Crash injection (CrashServer) reports ErrUnsupported on this backend;
// packet loss is injected with WithReceiveFilter instead.
func UDP(book map[string]string, opts ...UDPOption) Transport {
	t := &socketTransport{backend: "udp", book: maps.Clone(book)}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// socketTransport holds the deployment-independent parameters of a socket
// backend; socknet.Listen turns its backend name into a carrier.
type socketTransport struct {
	backend string
	book    map[string]string
	filter  func(from types.ProcessID) bool
}

func (t *socketTransport) String() string { return t.backend }

func (t *socketTransport) connect(cfg Config) (transportSession, error) {
	s := &socketSession{tr: t, live: make(transport.AddressBook)}
	if len(t.book) > 0 {
		var err error
		if s.static, err = transport.BookFromMembers(t.book); err != nil {
			return nil, fmt.Errorf("fastread: %s address book: %w", t.backend, err)
		}
	}
	return s, nil
}

// socketSession is one store's deployment over a socket backend: each joined
// process owns a socket, and processes the static book does not cover are
// resolved through the live table filled in at join time.
type socketSession struct {
	tr     *socketTransport
	static transport.AddressBook

	mu    sync.Mutex
	live  transport.AddressBook
	nodes []socknet.Node
}

func (s *socketSession) join(id types.ProcessID) (transport.Node, error) {
	listenAddr := s.static[id]
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	node, err := socknet.Listen(s.tr.backend, framed.Config{
		Self:       id,
		ListenAddr: listenAddr,
		Book:       s.static,
		Resolve:    s.resolve,
	}, s.tr.filter)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.live[id] = node.Addr()
	s.nodes = append(s.nodes, node)
	s.mu.Unlock()
	return node, nil
}

// resolve serves the live address table to every node of the session; it
// covers the ephemeral-port processes the static book cannot name up front.
func (s *socketSession) resolve(id types.ProcessID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addr, ok := s.live[id]
	return addr, ok
}

func (s *socketSession) close() error {
	// Keep the node list so stats() stays meaningful after close; Node.Close
	// is idempotent.
	s.mu.Lock()
	nodes := append([]socknet.Node(nil), s.nodes...)
	s.mu.Unlock()
	var first error
	for _, n := range nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *socketSession) crash(id types.ProcessID) error {
	return fmt.Errorf("%w: crash injection requires the in-memory network (kill the process instead)", ErrUnsupported)
}

func (s *socketSession) stats() transport.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum transport.Stats
	for _, n := range s.nodes {
		sum.Add(n.Stats())
	}
	return sum
}
