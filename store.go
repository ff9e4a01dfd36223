package fastread

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fastread/internal/driver"
	"fastread/internal/durable"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/sig"
	"fastread/internal/topology"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// Errors returned by the Store API.
var (
	// ErrStoreClosed indicates an operation on a closed store.
	ErrStoreClosed = errors.New("fastread: store is closed")
	// ErrKeyTooLong indicates a register key exceeding the wire format's
	// limit (wire.MaxKeySize bytes).
	ErrKeyTooLong = errors.New("fastread: register key too long")
)

// MaxKeyLen is the longest register key a Store accepts, in bytes.
const MaxKeyLen = wire.MaxKeySize

// defaultGroupName labels the implicit replica group of an unpartitioned
// deployment (Config.Groups empty) in GroupOf, Register.Group and the
// per-group Stats breakdown.
const defaultGroupName = "default"

// Store is a complete register deployment serving MANY named registers. In
// its simplest shape it is ONE replica group: S servers, the single writer
// identity and R reader identities, all attached to the same transport
// backend — the in-memory asynchronous network by default, or real sockets
// when Config.Transport is fastread.TCP or fastread.UDP (see Transport).
//
// With Config.Groups set, the store instead PARTITIONS the keyspace across
// several independent replica groups: a consistent-hash ring over the group
// names (internal/topology) assigns every key an owning group, and each
// group is its own complete deployment — its own transport session, servers,
// writer and reader identities, and its own quorum parameters. Register
// resolves the owning group BEFORE any protocol driver is involved, so a
// key's operations only ever touch its group's S servers: groups exchange no
// messages, which is exactly why per-key atomicity composes — each group is
// the single-group deployment the paper's proofs are about. Every group
// starts in NewStore; the unpartitioned store is the one-group case, its
// group named "default".
//
// Each named register is an independent instance of the configured protocol:
// servers keep fully separate per-key state (timestamps, seen sets, client
// counters), so per-key atomicity is exactly the single-register guarantee
// of the paper, multiplied across the keyspace. A group's writer and reader
// processes join its network once; their traffic is demultiplexed by the
// register key carried in every protocol message, so adding a register costs
// a map entry per server and a handful of client-side state, not a new
// process set.
//
// The protocol implementation itself is resolved through the driver
// registry: every protocol registers uniform server/writer/reader factories,
// and the store composes them with the transport — no per-protocol code
// lives here.
//
// Register hands out the per-key write/read handles; the empty key is the
// default register of single-register code.
type Store struct {
	cfg Config
	drv driver.Driver

	// ring maps keys onto indexes of groups, which NewStore fills with every
	// started group and which never changes after it returns.
	ring   *topology.Ring
	groups []*storeGroup

	// closed flips before shutdown begins so handle operations issued after
	// Close fail fast with ErrStoreClosed instead of waiting out their
	// contexts against a dead network. (The flag is checked at operation
	// entry: an operation already inside its quorum wait when Close runs
	// still observes its own context.)
	closed atomic.Bool

	mu   sync.Mutex
	regs map[string]*Register
}

// storeGroup is one replica group: a complete independent deployment
// (transport session, servers, client demultiplexers, signing keys). Groups
// share nothing — not even a signature keypair — so the failure and capacity
// envelope of one group never touches another.
type storeGroup struct {
	name    string
	qcfg    quorum.Config
	tr      Transport // what NewStore connects session from
	session transportSession
	keys    sig.KeyPair

	// srvMu guards servers: RestartServer swaps entries while Stats and
	// close iterate. The slice length is fixed at startGroup.
	srvMu   sync.Mutex
	servers []driver.Server

	// durCounters is index-aligned with servers; each entry is the sink one
	// server's durable log publishes its counters into. The SAME sink spans
	// restarts — a new incarnation keeps accumulating where the old one
	// stopped — so Stats never loses recovery history to a restart. Nil when
	// the deployment is not durable; read-only after startGroup.
	durCounters []*durable.Counters

	writerDemux   *transport.Demux
	readerDemuxes []*transport.Demux
}

// Register is the pair of per-key handles a Store serves for one named
// register: the register's single writer and its R readers. Handles share
// the owning replica group's transport processes with every other register
// of that group.
type Register struct {
	key    string
	gi     int
	g      *storeGroup
	writer *writerHandle
	// readers holds a *readerHandle per reader, in index order; Readers
	// hands out the slice itself.
	readers []Reader
}

// NewStore builds and starts a multi-register deployment according to cfg:
// every replica group's servers, writer and readers are running when it
// returns. The deployment serves an open-ended keyspace: call Register to
// obtain the handles for any key.
func NewStore(cfg Config) (*Store, error) {
	if cfg.Protocol == "" {
		cfg.Protocol = ProtocolFast
	}
	drv, ok := driver.Lookup(string(cfg.Protocol))
	if !ok {
		return nil, fmt.Errorf("%w: no driver registered for %q", ErrUnknownProtocol, cfg.Protocol)
	}
	groups, ring, err := resolveGroups(cfg, drv)
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, drv: drv, ring: ring, regs: make(map[string]*Register)}
	for _, g := range groups {
		session, err := g.tr.connect(cfg)
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("fastread: group %q: %w", g.name, err)
		}
		g.session = session
		s.groups = append(s.groups, g)
		if err := s.startGroup(g); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}

// resolveGroups turns the deployment configuration into the ordered list of
// groups to start — Config.Groups, or the one "default" group — and the ring
// that places keys on them. Every group's quorum shape is validated here,
// including against the driver's protocol bound, before any group binds a
// transport or opens a data directory.
func resolveGroups(cfg Config, drv driver.Driver) ([]*storeGroup, *topology.Ring, error) {
	specs := cfg.Groups
	if len(specs) == 0 {
		specs = []GroupSpec{{Name: defaultGroupName}}
	}
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
	}
	ring, err := topology.NewRing(names, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("fastread: %w", err)
	}

	base := quorum.Config{Servers: cfg.Servers, Faulty: cfg.Faulty, Malicious: cfg.Malicious, Readers: cfg.Readers}
	groups := make([]*storeGroup, len(specs))
	for i, spec := range specs {
		// Zero-valued per-group parameters inherit the deployment level, so
		// a homogeneous fleet is just a list of names. The unnamed topology
		// group leaves an unpartitioned deployment's errors bare.
		tg := topology.Group{Servers: spec.Servers, Faulty: spec.Faulty, Malicious: spec.Malicious}
		if len(cfg.Groups) > 0 {
			tg.Name = spec.Name
		}
		q, err := tg.Quorum(base, drv.Validate)
		if err != nil {
			return nil, nil, err
		}
		for bi := range cfg.Byzantine {
			if bi < 1 || bi > q.Servers {
				return nil, nil, fmt.Errorf("%w: Byzantine index %d (S=%d)", ErrUnknownServer, bi, q.Servers)
			}
		}
		tr := cmp.Or(spec.Transport, cfg.Transport, InMemory())
		groups[i] = &storeGroup{name: spec.Name, qcfg: q, tr: tr, keys: sig.MustKeyPair()}
	}
	return groups, ring, nil
}

// startGroup launches the group's servers and attaches its writer and reader
// identities. One server process serves every register the group owns, on one
// goroutine.
func (s *Store) startGroup(g *storeGroup) error {
	if s.cfg.DataDir != "" {
		g.durCounters = make([]*durable.Counters, g.qcfg.Servers)
		for i := range g.durCounters {
			g.durCounters[i] = &durable.Counters{}
		}
	}
	for i := 1; i <= g.qcfg.Servers; i++ {
		id := types.Server(i)
		node, err := g.session.join(id)
		if err != nil {
			return fmt.Errorf("group %q: join %v: %w", g.name, id, err)
		}
		srv, err := s.newGroupServer(g, i, node)
		if err != nil {
			return err
		}
		srv.Start()
		g.srvMu.Lock()
		g.servers = append(g.servers, srv)
		g.srvMu.Unlock()
	}
	wNode, err := g.session.join(types.Writer())
	if err != nil {
		return err
	}
	g.writerDemux = transport.NewDemux(wNode, protoutil.WireKeyFunc, 0)
	for i := 1; i <= s.cfg.Readers; i++ {
		rNode, err := g.session.join(types.Reader(i))
		if err != nil {
			return err
		}
		g.readerDemuxes = append(g.readerDemuxes, transport.NewDemux(rNode, protoutil.WireKeyFunc, 0))
	}
	return nil
}

// newGroupServer builds (but does not start) server i of the group: the
// configured Byzantine replacement if the index is listed, the protocol
// driver's server otherwise. Byzantine servers never persist — an arbitrary-
// faulty process gets no say in what recovery replays.
func (s *Store) newGroupServer(g *storeGroup, i int, node transport.Node) (driver.Server, error) {
	if b, ok := s.cfg.Byzantine[i]; ok {
		// Byzantine behaviours apply per group: each group's server i
		// misbehaves, and each group's b bound is validated against it.
		return newByzantineServer(s.cfg, b, types.Server(i), node)
	}
	return s.drv.NewServer(driver.ServerConfig{
		ID:       types.Server(i),
		Quorum:   g.qcfg,
		Verifier: g.keys.Verifier,
		Durable:  s.durableOptions(g, i),
	}, node)
}

// durableOptions resolves server i's write-ahead-log configuration, or nil
// for an in-memory-only deployment. Each server's log lives in its own
// directory, DataDir/<group>/s<i>, and publishes its counters into the
// group's per-index sink so restarts accumulate rather than reset.
func (s *Store) durableOptions(g *storeGroup, i int) *durable.Options {
	if s.cfg.DataDir == "" {
		return nil
	}
	d := s.cfg.Durability
	return &durable.Options{
		Dir:           filepath.Join(s.cfg.DataDir, g.name, fmt.Sprintf("s%d", i)),
		Fsync:         durable.Policy(d.Fsync),
		FsyncEvery:    d.FsyncInterval,
		SegmentBytes:  d.SegmentBytes,
		SnapshotEvery: d.SnapshotEvery,
		Epoch:         d.Epoch,
		SimulateCrash: d.SimulateCrash,
		Counters:      g.durCounters[i-1],
	}
}

// close shuts one group down: servers stop, the transport session closes,
// and the demux pumps are drained.
func (g *storeGroup) close() error {
	g.srvMu.Lock()
	servers := append([]driver.Server(nil), g.servers...)
	g.srvMu.Unlock()
	for _, srv := range servers {
		srv.Stop()
	}
	err := g.session.close()
	// Closing the transport closes the physical client nodes, which
	// terminates the demux pumps; waiting on them guarantees no goroutine
	// outlives Close.
	if g.writerDemux != nil {
		_ = g.writerDemux.Close()
	}
	for _, d := range g.readerDemuxes {
		_ = d.Close()
	}
	return err
}

// Register returns the handles for the named register, creating its per-key
// clients on first use. Calling Register again with the same key returns the
// SAME handles: each register has exactly one writer (the model's single
// writer) and R readers, and the handles carry protocol state (the writer's
// timestamp sequence, the readers' observed maxima) that must not be forked.
//
// Register is also where routing happens: the key's owning replica group is
// resolved on the ring — before any protocol driver sees the key — and the
// handles are built over that group's transport.
func (s *Store) Register(key string) (*Register, error) {
	if len(key) > MaxKeyLen {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrKeyTooLong, len(key), MaxKeyLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrStoreClosed
	}
	if reg, ok := s.regs[key]; ok {
		return reg, nil
	}
	gi := s.ring.Lookup(key)
	reg, err := s.newRegister(s.groups[gi], gi, key)
	if err != nil {
		return nil, err
	}
	s.regs[key] = reg
	return reg, nil
}

// newRegister builds the per-key writer and reader clients over the owning
// group's transport, through the protocol driver's uniform factories.
// Callers must hold s.mu.
func (s *Store) newRegister(g *storeGroup, gi int, key string) (*Register, error) {
	w, err := s.drv.NewWriter(s.clientConfig(g, key), g.writerDemux.Route(key))
	if err != nil {
		return nil, err
	}
	reg := &Register{key: key, gi: gi, g: g, writer: &writerHandle{store: s, w: w}}
	for i := 1; i <= s.cfg.Readers; i++ {
		r, err := s.drv.NewReader(s.clientConfig(g, key), g.readerDemuxes[i-1].Route(key))
		if err != nil {
			return nil, err
		}
		rh := &readerHandle{store: s}
		rh.cur.Store(r)
		reg.readers = append(reg.readers, rh)
	}
	return reg, nil
}

// clientConfig assembles one per-key client's driver configuration against
// its owning group's quorum shape and signing keys. Each call draws a fresh
// nonce from NonceSource (when configured) so every handle — including a
// restarted reader incarnation — gets its own.
func (s *Store) clientConfig(g *storeGroup, key string) driver.ClientConfig {
	cfg := driver.ClientConfig{
		Key:      key,
		Quorum:   g.qcfg,
		Signer:   g.keys.Signer,
		Verifier: g.keys.Verifier,
		Depth:    s.cfg.PipelineDepth,
	}
	if s.cfg.NonceSource != nil {
		cfg.Nonce = s.cfg.NonceSource()
	}
	return cfg
}

// Keys returns the keys of every register this store has handed out, in no
// particular order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.regs))
	for k := range s.regs {
		out = append(out, k)
	}
	return out
}

// Groups returns the ordered replica group names of the deployment. An
// unpartitioned store reports its single implicit group.
func (s *Store) Groups() []string {
	out := make([]string, len(s.groups))
	for i, g := range s.groups {
		out[i] = g.name
	}
	return out
}

// GroupOf reports which replica group owns key: a pure ring computation —
// no message sent — so any process sharing the deployment's configuration
// computes the same answer.
func (s *Store) GroupOf(key string) string {
	return s.groups[s.ring.Lookup(key)].name
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// CrashServer crash-stops server si (1-based): it stops receiving and
// sending messages permanently. In a partitioned deployment the crash
// applies to server si of EVERY replica group whose size covers the index —
// each group runs its own failure budget, so crashing more than a group's
// Faulty servers voids that group's guarantees, exactly as in the model.
//
// Crash injection is a capability of the in-memory backend; on other
// transports CrashServer reports ErrUnsupported.
func (s *Store) CrashServer(i int) error {
	if i < 1 {
		return fmt.Errorf("%w: %d", ErrUnknownServer, i)
	}
	inRange := false
	var first error
	for _, g := range s.groups {
		if i > g.qcfg.Servers {
			continue
		}
		inRange = true
		if err := g.session.crash(types.Server(i)); err != nil && first == nil {
			first = err
		}
	}
	if !inRange {
		return fmt.Errorf("%w: %d (S=%d)", ErrUnknownServer, i, s.maxServers())
	}
	return first
}

// maxServers is the widest group's size, for error messages.
func (s *Store) maxServers() int {
	max := 0
	for _, g := range s.groups {
		if g.qcfg.Servers > max {
			max = g.qcfg.Servers
		}
	}
	return max
}

// RestartServer stops server si (1-based) and starts a NEW incarnation of it
// on the same transport identity, recovering whatever the old incarnation
// persisted. In a durable deployment (Config.DataDir) the new incarnation
// replays its snapshot and log tail, bumps its persisted incarnation counter
// and rejoins with every acknowledged register value intact (minus whatever
// the fsync policy permitted to be lost); in an in-memory-only deployment it
// rejoins amnesiac, which is only safe while the deployment's total failure
// budget covers it. The restart models a process crash, not a graceful
// handover: the old incarnation is stopped without a final flush when
// Config.Durability.SimulateCrash is set (internal/sim's mode), and messages
// queued at the dead incarnation are lost with it.
//
// In a partitioned deployment the restart applies to server si of every
// replica group whose size covers the index, mirroring CrashServer. A server
// previously crashed with CrashServer is restartable: the new incarnation
// clears the crash mark when it rejoins — CrashServer alone remains "gone
// forever", RestartServer is what brings a fresh incarnation back. Requires a backend whose identities can rejoin; the
// in-memory transport supports it, socket backends report their own errors.
func (s *Store) RestartServer(i int) error {
	if i < 1 {
		return fmt.Errorf("%w: %d", ErrUnknownServer, i)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrStoreClosed
	}
	inRange := false
	for _, g := range s.groups {
		if i > g.qcfg.Servers {
			continue
		}
		inRange = true
		g.srvMu.Lock()
		old := g.servers[i-1]
		g.srvMu.Unlock()
		// Stop closes the old node (freeing the identity for rejoin) and the
		// old durable log (truncating to the synced offset under
		// SimulateCrash — the crash point is wherever the log stood).
		old.Stop()
		node, err := g.session.join(types.Server(i))
		if err != nil {
			return fmt.Errorf("fastread: restart server %d: group %q: %w", i, g.name, err)
		}
		srv, err := s.newGroupServer(g, i, node)
		if err != nil {
			return fmt.Errorf("fastread: restart server %d: group %q: %w", i, g.name, err)
		}
		srv.Start()
		g.srvMu.Lock()
		g.servers[i-1] = srv
		g.srvMu.Unlock()
	}
	if !inRange {
		return fmt.Errorf("%w: %d (S=%d)", ErrUnknownServer, i, s.maxServers())
	}
	return nil
}

// RestartReader tears down reader ri's client for the named register and
// builds a fresh one over a new demux route, modelling a reader process
// restart: in-flight reads of the old incarnation fail (their inbox is
// severed — the operation dies with the process), client-side protocol state
// is lost, and the new incarnation resumes with a fresh initial nonce. The
// register must already exist (see Register); the reader's other keys and
// all other handles are untouched.
//
// Servers remember the highest operation counter each reader identity used
// (the stale-request guard), so the restart exercises the nonce/incarnation
// machinery: a NonceSource that fails to move forward starves the new
// incarnation, which is exactly the PR 5 latent bug internal/sim pins as a
// fixture.
func (s *Store) RestartReader(key string, i int) error {
	if i < 1 || i > s.cfg.Readers {
		return fmt.Errorf("%w: %d (R=%d)", ErrUnknownReader, i, s.cfg.Readers)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrStoreClosed
	}
	reg, ok := s.regs[key]
	if !ok {
		return fmt.Errorf("fastread: no register %q (Register it before restarting its readers)", key)
	}
	d := reg.g.readerDemuxes[i-1]
	// Sever the old incarnation: closing the route fails its pending
	// operations with the pipeline's inbox-closed error. A later Route call
	// for the same key creates a fresh route.
	_ = d.Route(key).Close()
	r, err := s.drv.NewReader(s.clientConfig(reg.g, key), d.Route(key))
	if err != nil {
		return err
	}
	reg.readers[i-1].(*readerHandle).cur.Store(r)
	return nil
}

// Stats aggregates client-side counters across every register, plus network
// delivery counts and server state mutations. The Groups breakdown
// attributes the same counters to each replica group — one entry per group
// in configuration order.
func (s *Store) Stats() Stats {
	// Snapshot the registers under the lock, but aggregate after releasing
	// it: a handle's stats share the mutex its operations hold across a full
	// network round-trip, and blocking Register on every other key for that
	// long would couple independent registers together.
	s.mu.Lock()
	regs := make([]*Register, 0, len(s.regs))
	for _, reg := range s.regs {
		regs = append(regs, reg)
	}
	s.mu.Unlock()

	var out Stats
	out.Groups = make([]GroupStats, len(s.groups))
	for i, g := range s.groups {
		out.Groups[i].Group = g.name
	}
	for _, reg := range regs {
		gs := &out.Groups[reg.gi]
		gs.Keys++
		w, wr := reg.writer.w.Stats()
		gs.Writes += w
		out.WriteRoundTrips += wr
		for _, r := range reg.readers {
			reads, rounds, fallbacks := r.(*readerHandle).cur.Load().Stats()
			gs.Reads += reads
			out.ReadRoundTrips += rounds
			out.FallbackReads += fallbacks
		}
	}
	for gi, g := range s.groups {
		gs := &out.Groups[gi]
		gs.NetworkStats = g.session.stats()
		out.NetworkStats.Add(gs.NetworkStats)
		g.srvMu.Lock()
		servers := append([]driver.Server(nil), g.servers...)
		g.srvMu.Unlock()
		for _, srv := range servers {
			out.ServerMutations += srv.TotalMutations()
		}
		for _, c := range g.durCounters {
			gs.Durable.Add(c.Snapshot())
		}
	}
	for i := range out.Groups {
		gs := &out.Groups[i]
		gs.Ops = gs.Writes + gs.Reads
		out.Writes += gs.Writes
		out.Reads += gs.Reads
		out.Durable.Add(gs.Durable)
	}
	out.DroppedMsgs = out.SendDrops + out.InboundDrops + out.DedupDrops
	if out.Reads > 0 {
		out.ReadRoundsPerOp = float64(out.ReadRoundTrips) / float64(out.Reads)
	}
	if out.Writes > 0 {
		out.WriteRoundsPerOp = float64(out.WriteRoundTrips) / float64(out.Writes)
	}
	return out
}

// Close shuts the store down: every replica group's servers stop, its
// client demultiplexers detach and its transport session is closed. Handle
// operations issued after Close fail fast with ErrStoreClosed. Close is
// idempotent.
func (s *Store) Close() error {
	s.closed.Store(true)
	var first error
	for _, g := range s.groups {
		if err := g.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Key returns the register's name.
func (r *Register) Key() string { return r.key }

// Group returns the name of the replica group serving this register.
func (r *Register) Group() string { return r.g.name }

// Writer returns the register's single write handle.
func (r *Register) Writer() Writer { return r.writer }

// Reader returns the read handle of reader ri (1-based) for this register.
func (r *Register) Reader(i int) (Reader, error) {
	if i < 1 || i > len(r.readers) {
		return nil, fmt.Errorf("%w: %d (R=%d)", ErrUnknownReader, i, len(r.readers))
	}
	return r.readers[i-1], nil
}

// Readers returns all of the register's read handles in index order. The
// slice is the register's own, shared by every call: read it, do not modify
// it. A handle stays the same across RestartReader, which swaps the client
// behind it.
func (r *Register) Readers() []Reader { return r.readers }

// mapHandleErr translates a handle operation's failure into the public
// error vocabulary: once the store is closed, the transport-level failure
// modes (closed inboxes, severed routes) all mean the same thing to a
// caller — the store is gone — so they surface as ErrStoreClosed. Context
// errors stay themselves: the CALLER ended those operations.
func (s *Store) mapHandleErr(err error) error {
	if err == nil || !s.closed.Load() {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrStoreClosed, err)
}

// admit applies the store's admission budget (Config.AdmissionWait) to an
// operation's context. The pipeline reads the budget only when it is
// already at depth, so the common unsaturated path costs one nil-comparison
// here and nothing below.
func (s *Store) admit(ctx context.Context) context.Context {
	if s.cfg.AdmissionWait > 0 {
		return protoutil.WithAdmissionWait(ctx, s.cfg.AdmissionWait)
	}
	return ctx
}

// writerHandle is the public Writer over the engine's writer: it adds the
// store-closed fast path, the admission budget and the public error
// vocabulary.
type writerHandle struct {
	store *Store
	w     *protoutil.Writer
}

var _ Writer = (*writerHandle)(nil)

// Write implements Writer. A Write issued after Store.Close fails fast with
// ErrStoreClosed: the servers are gone, so without the check the operation
// would wait out its entire context against a network that can never answer.
func (w *writerHandle) Write(ctx context.Context, value []byte) error {
	if w.store.closed.Load() {
		return ErrStoreClosed
	}
	return w.store.mapHandleErr(w.w.Write(w.store.admit(ctx), value))
}

// WriteAsync implements Writer.
func (w *writerHandle) WriteAsync(ctx context.Context, value []byte) (*WriteFuture, error) {
	if w.store.closed.Load() {
		return nil, ErrStoreClosed
	}
	f, err := w.w.WriteAsync(w.store.admit(ctx), value)
	if err != nil {
		return nil, w.store.mapHandleErr(err)
	}
	return &WriteFuture{store: w.store, f: f}, nil
}

// readerHandle is the public Reader over the engine's reader, adding what
// writerHandle adds. The engine reader is swapped atomically by
// Store.RestartReader, so operations in flight on the old incarnation keep
// their reader while new operations go to the new one.
type readerHandle struct {
	store *Store
	cur   atomic.Pointer[protoutil.Reader]
}

var _ Reader = (*readerHandle)(nil)

// Read implements Reader. After Store.Close it fails fast with
// ErrStoreClosed (see writerHandle.Write).
func (r *readerHandle) Read(ctx context.Context) (ReadResult, error) {
	if r.store.closed.Load() {
		return ReadResult{}, ErrStoreClosed
	}
	res, err := r.cur.Load().Read(r.store.admit(ctx))
	if err != nil {
		return ReadResult{}, r.store.mapHandleErr(err)
	}
	return publicReadResult(res), nil
}

// ReadAsync implements Reader.
func (r *readerHandle) ReadAsync(ctx context.Context) (*ReadFuture, error) {
	if r.store.closed.Load() {
		return nil, ErrStoreClosed
	}
	f, err := r.cur.Load().ReadAsync(r.store.admit(ctx))
	if err != nil {
		return nil, r.store.mapHandleErr(err)
	}
	return &ReadFuture{store: r.store, f: f}, nil
}
