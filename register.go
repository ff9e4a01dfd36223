package fastread

import (
	"context"
	"errors"
	"time"

	"fastread/internal/driver"
	"fastread/internal/durable"
	"fastread/internal/fault"
	"fastread/internal/protoutil"
)

// Protocol selects which register implementation a deployment runs, by its
// name in the protocol driver registry (internal/driver). The constants below
// are the protocols this module registers; any other registered name — test
// instrumentation such as internal/sim's deliberately-buggy canary driver, or
// the relaxed drivers internal/adversary deploys beyond the bound — is
// selected the same way, and a name nothing registered makes NewStore report
// ErrUnknownProtocol.
type Protocol string

const (
	// ProtocolFast is the paper's fast crash-tolerant SWMR atomic register
	// (Figure 2): one round-trip per read and per write, requires
	// R < S/t − 2.
	ProtocolFast Protocol = "fast"
	// ProtocolFastByzantine is the arbitrary-failure fast register
	// (Figure 5): writer-signed values, requires S > (R+2)t + (R+1)b.
	ProtocolFastByzantine Protocol = "fast-byz"
	// ProtocolABD is the classic two-round-read SWMR register of Attiya,
	// Bar-Noy and Dolev: requires only t < S/2 and supports any number of
	// readers, but reads cost two round-trips.
	ProtocolABD Protocol = "abd"
	// ProtocolMaxMin is the decentralised variant sketched in the paper's
	// introduction: one client round-trip, but servers gossip with each
	// other before replying.
	ProtocolMaxMin Protocol = "maxmin"
	// ProtocolRegular is a fast SWMR *regular* register: one round-trip,
	// any number of readers, t < S/2, but only regular (not atomic)
	// semantics.
	ProtocolRegular Protocol = "regular"
)

// Config describes a register deployment.
type Config struct {
	// Servers is S, the number of server processes hosting the register.
	Servers int
	// Faulty is t, the maximum number of servers that may fail.
	Faulty int
	// Malicious is b ≤ t, the number of faulty servers that may behave
	// arbitrarily. Only meaningful for ProtocolFastByzantine.
	Malicious int
	// Readers is R, the number of reader processes.
	Readers int
	// Protocol selects the implementation; the zero value means
	// ProtocolFast. The implementation is resolved through the protocol
	// driver registry, so every protocol runs over every transport backend.
	Protocol Protocol
	// Transport selects the message-passing backend the deployment runs on;
	// nil means InMemory(). See Transport, InMemory and TCP. In a partitioned
	// deployment (Groups non-empty) this is the default backend FACTORY for
	// every group: each group still connects its own independent session from
	// it, so groups never share sockets, networks or failure domains.
	Transport Transport
	// Groups, when non-empty, partitions the keyspace across that many
	// independent replica groups instead of keeping every key on one server
	// set: a consistent-hash ring over the group names assigns each register
	// key an owning group (Store.GroupOf), Register routes to it before the
	// protocol driver is involved, and each group is a complete deployment of
	// its own — own transport session, own S servers, own writer/reader
	// identities, own quorum math — instantiated lazily on the first Register
	// of a key it owns. Per-register atomicity composes across groups because
	// they are disjoint: a key's operations only ever touch its group's
	// servers, so each group is exactly the single-group deployment the
	// paper's proofs cover. Group names are part of the placement function —
	// every process of a deployment must use the same ordered list (see
	// internal/topology). Empty means the classic single-group deployment.
	Groups []GroupSpec
	// PipelineDepth bounds the operations ONE handle keeps in flight through
	// the async API (Writer.WriteAsync / Reader.ReadAsync): a submission
	// beyond the depth blocks until an in-flight operation completes. Zero
	// or negative selects the default (16); values above 512 are clamped —
	// servers bound their per-client bookkeeping assuming live operations
	// span a limited nonce window. Serial Read/Write are the depth-one case
	// and are unaffected by the setting.
	PipelineDepth int
	// AdmissionWait, when positive, turns the pipeline's at-depth blocking
	// into admission control: a WriteAsync/ReadAsync (or serial Write/Read)
	// that cannot get an in-flight slot within the budget fails fast with
	// ErrOverloaded instead of queueing indefinitely. Under offered load
	// beyond capacity this is what keeps client latency bounded — the
	// excess is shed and counted rather than stacked into queues (see the
	// "Latency under load" section of the README). Zero (the default)
	// keeps the block-until-free behaviour.
	AdmissionWait time.Duration
	// QueueBound, when positive, caps each SERVER's in-memory transport
	// mailbox at that many messages (socket inboxes are always capped at
	// 1 024 and count their overflow in InboundDrops): deliveries beyond the
	// cap are shed and counted in Stats.ShedDrops instead of growing the
	// queue, so server memory, queueing delay and MailboxHighWater stay
	// bounded under overload. Shedding a request is as safe as a lossy network:
	// the protocols tolerate loss via quorum slack and client
	// retry/timeout. Client-side queues are never bounded by this knob
	// (dropping acknowledgements can starve a completable quorum). Zero
	// (the default) keeps every queue unbounded.
	QueueBound int
	// NonceSource, when non-nil, supplies the initial operation counter for
	// each reader handle the store creates, replacing the wall-clock default
	// (see internal/protoutil.StartNonce). Deterministic simulation plugs
	// in virtual-clock microseconds so identical seeds produce identical
	// wire traffic; the source must preserve the restart-incarnation
	// ordering (later handles get larger nonces) or restarted readers
	// starve on the servers' stale-request guard.
	NonceSource func() int64
	// DataDir, when non-empty, makes every server process durable: each gets
	// a private write-ahead segment log plus periodic snapshots under
	// DataDir/<group>/s<index> (see internal/durable), mutations are logged
	// and the log committed before they are acknowledged (a server whose log
	// fails stops acknowledging), and Store.RestartServer recovers a
	// server's state and incarnation counter from its directory. Empty keeps
	// the classic in-memory-only servers, with zero persistence cost.
	DataDir string
	// Durability tunes the write-ahead logs of a durable deployment (DataDir
	// non-empty); the zero value selects the defaults described on each
	// field. Ignored when DataDir is empty.
	Durability DurabilityOptions
	// Byzantine replaces the listed servers (by 1-based index) with
	// malicious implementations exhibiting the given behaviours, for
	// adversarial testing. The replacements understand the fast protocols'
	// message vocabulary; combine with ProtocolFastByzantine and a
	// deployment satisfying its bound (b ≥ number of entries here) to
	// assert safety holds, or with ProtocolFast to demonstrate where it
	// breaks. In-memory backend recommended (the behaviours are
	// transport-agnostic, but the adversarial schedules that make them
	// interesting are not reproducible over sockets).
	Byzantine map[int]ByzantineBehavior
}

// GroupSpec describes one replica group of a partitioned deployment (see
// Config.Groups). The zero values of the quorum fields inherit the
// deployment-level Config, so a homogeneous fleet is just a list of names:
//
//	Groups: []GroupSpec{{Name: "g0"}, {Name: "g1"}, {Name: "g2"}, {Name: "g3"}}
type GroupSpec struct {
	// Name identifies the group on the placement ring; required, and unique
	// within the deployment. Renaming a group moves its keys.
	Name string
	// Servers (S), Faulty (t) and Malicious (b) are the group's quorum
	// parameters; zero inherits the deployment-level value. Groups may
	// differ — a hot slice of the keyspace can run wider than a cold one —
	// and each group's shape is validated against the protocol's bound at
	// NewStore.
	Servers   int
	Faulty    int
	Malicious int
	// Transport gives the group its own backend; nil inherits
	// Config.Transport (and ultimately InMemory()). Socket deployments with
	// STATIC address books need a per-group Transport here — every group
	// binds the same process identities (s1..sS, w, r1..rR), so sharing one
	// pinned book would collide. Ephemeral-port books (nil/partial) and the
	// in-memory backend share fine: each group's session allocates its own
	// endpoints.
	Transport Transport
}

// FsyncPolicy selects when a durable server forces its appended log records
// to stable storage (Config.Durability.Fsync).
type FsyncPolicy string

const (
	// FsyncAlways fsyncs before any client is acknowledged: nothing
	// acknowledged is ever lost. A server commits once per executor run —
	// one fsync for every mutation the run logged, one per request when the
	// server is idle — and releases the run's acknowledgements after it.
	FsyncAlways FsyncPolicy = "always"
	// FsyncIntervalPolicy fsyncs on a background ticker (the default): a
	// crash loses at most Durability.FsyncInterval of acknowledged writes.
	FsyncIntervalPolicy FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the OS page cache: a process crash is
	// survivable (the kernel still holds the writes), a machine crash is not.
	FsyncNever FsyncPolicy = "never"
)

// DurabilityOptions tunes the write-ahead logs of a durable deployment
// (Config.DataDir non-empty). The zero value selects every default.
type DurabilityOptions struct {
	// Fsync is the flush policy; empty means FsyncIntervalPolicy. See the
	// FsyncPolicy constants for what each trades away.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncIntervalPolicy period; 0 means 100ms.
	FsyncInterval time.Duration
	// SegmentBytes rotates a server's active log segment past this size;
	// 0 means 4MiB.
	SegmentBytes int64
	// SnapshotEvery triggers a background snapshot (which truncates dead log
	// segments) after that many appends; 0 means 4096, negative disables the
	// automatic trigger (deterministic simulation does this — the background
	// goroutine's timing is wall-clock).
	SnapshotEvery int
	// Epoch is the topology epoch stamped into every segment and snapshot
	// header; recovery REFUSES state written under a different epoch, so a
	// reconfigured deployment cannot silently resurrect pre-reconfiguration
	// registers. See internal/topology.Topology.Epoch.
	Epoch uint64
	// SimulateCrash makes every server shutdown model a machine crash
	// instead of a graceful close: the active segment is truncated back to
	// its last-fsynced offset and no final flush or snapshot runs. This is
	// the fault-injection knob Store.RestartServer and internal/sim build
	// on; production deployments leave it false.
	SimulateCrash bool
}

// DurableStats summarises the write-ahead and recovery work of a durable
// deployment's logs; all fields are zero when Config.DataDir is empty.
type DurableStats = durable.Stats

// ByzantineBehavior selects what a server listed in Config.Byzantine does
// instead of following the protocol: one of internal/fault's library.
type ByzantineBehavior = fault.Behavior

const (
	// ByzantineForgeTimestamp replies with an enormous forged timestamp and
	// a value the writer never wrote, signed with a non-writer key.
	ByzantineForgeTimestamp = fault.BehaviorForgeTimestamp
	// ByzantineStaleReplay always replies with the initial state (ts=0).
	ByzantineStaleReplay = fault.BehaviorStaleReplay
	// ByzantineMemoryLoss behaves honestly except towards reader 1, to
	// which it replies as if it had never received any message.
	ByzantineMemoryLoss = fault.BehaviorMemoryLoss
	// ByzantineInflateSeen claims every client is in its seen set, trying
	// to trick the fast-read predicate into holding early.
	ByzantineInflateSeen = fault.BehaviorInflateSeen
	// ByzantineMute receives but never replies.
	ByzantineMute = fault.BehaviorMute
	// ByzantineFlood answers every request with a burst of fabricated stale
	// acknowledgements followed by one honest reply, stressing the
	// receive-path backlog machinery as well as the ack filters.
	ByzantineFlood = fault.BehaviorFlood
)

// Errors returned by the façade.
var (
	// ErrTooManyReaders indicates a fast-register configuration that
	// violates the paper's bound (R ≥ S/t − 2, or its Byzantine analogue).
	// It is the driver registry's sentinel, re-exported so callers match it
	// on the public package.
	ErrTooManyReaders = driver.ErrTooManyReaders
	// ErrUnknownProtocol indicates an invalid Protocol value.
	ErrUnknownProtocol = errors.New("fastread: unknown protocol")
	// ErrUnknownReader indicates a reader index outside [1, R].
	ErrUnknownReader = errors.New("fastread: unknown reader index")
	// ErrUnknownServer indicates a server index outside [1, S].
	ErrUnknownServer = errors.New("fastread: unknown server index")
	// ErrOverloaded indicates an operation was shed by admission control:
	// the handle's pipeline stayed at depth past the Config.AdmissionWait
	// budget, so the submission failed fast without consuming a slot or
	// touching the wire. The caller may retry later; under sustained
	// overload, backing off is the point. Match with errors.Is.
	ErrOverloaded = protoutil.ErrOverloaded
)

// ReadResult is the outcome of a read operation.
type ReadResult struct {
	// Value is the value read; nil means the register still holds its
	// initial value ⊥.
	Value []byte
	// Version is the logical timestamp of the returned value (0 for ⊥).
	Version int64
	// RoundTrips is the number of client↔server round-trips the read used:
	// 1 for the fast, max-min and regular protocols, 2 for ABD.
	RoundTrips int
	// UsedFallback is true when a fast read returned the previous value
	// because the seen-set predicate did not hold for the newest one.
	UsedFallback bool
}

// Writer is the write handle of a register.
type Writer interface {
	// Write stores value in the register. The value must be non-nil (nil is
	// reserved for the initial value ⊥). Write is WriteAsync at depth one:
	// submit, then wait.
	Write(ctx context.Context, value []byte) error
	// WriteAsync submits a write and returns its future without waiting for
	// the quorum, keeping up to Config.PipelineDepth writes of this handle
	// in flight. Writes are APPLIED in submission order regardless of
	// pipeline depth — each submission takes the next timestamp and is
	// broadcast before WriteAsync returns — so the register's single-writer
	// semantics survive pipelining. At depth, the call blocks until an
	// in-flight write completes.
	WriteAsync(ctx context.Context, value []byte) (*WriteFuture, error)
}

// Reader is the read handle of a register.
type Reader interface {
	// Read returns the current register value. Read is ReadAsync at depth
	// one: submit, then wait.
	Read(ctx context.Context) (ReadResult, error)
	// ReadAsync submits a read and returns its future without waiting for
	// the quorum, keeping up to Config.PipelineDepth reads of this handle in
	// flight. Each in-flight read is an independent operation: cancelling
	// one (via the ctx given here or to Result) never disturbs its siblings.
	// At depth, the call blocks until an in-flight read completes.
	ReadAsync(ctx context.Context) (*ReadFuture, error)
}

// WriteFuture is one submitted write's pending resolution.
type WriteFuture struct {
	store *Store
	f     *protoutil.Future[struct{}]
}

// Done closes when the write resolves; Result then returns immediately.
func (w *WriteFuture) Done() <-chan struct{} { return w.f.Done() }

// Result blocks until the write resolves and returns its outcome. If ctx
// ends first, the write's wait is abandoned (the value may still take
// effect, like any interrupted write) and the context's error returned. A
// future severed by Store.Close resolves with ErrStoreClosed.
func (w *WriteFuture) Result(ctx context.Context) error {
	_, err := w.f.Result(ctx)
	return w.store.mapHandleErr(err)
}

// ReadFuture is one submitted read's pending resolution.
type ReadFuture struct {
	store *Store
	f     *protoutil.Future[protoutil.ReadResult]
}

// Done closes when the read resolves; Result then returns immediately.
func (r *ReadFuture) Done() <-chan struct{} { return r.f.Done() }

// Result blocks until the read resolves and returns its outcome. If ctx
// ends first, the read is aborted (sibling in-flight reads are untouched)
// and the context's error returned. A future severed by Store.Close
// resolves with ErrStoreClosed.
func (r *ReadFuture) Result(ctx context.Context) (ReadResult, error) {
	res, err := r.f.Result(ctx)
	if err != nil {
		return ReadResult{}, r.store.mapHandleErr(err)
	}
	return publicReadResult(res), nil
}

// publicReadResult converts the engine's read result to the public shape —
// the one conversion between a caller and the engine, at the one boundary
// whose field names and types (Version, []byte) are API.
func publicReadResult(res protoutil.ReadResult) ReadResult {
	return ReadResult{
		Value:        res.Value,
		Version:      int64(res.Timestamp),
		RoundTrips:   res.RoundTrips,
		UsedFallback: res.UsedFallback,
	}
}

// Stats summarises the work performed through a cluster's clients.
type Stats struct {
	Writes          int64
	Reads           int64
	WriteRoundTrips int64
	ReadRoundTrips  int64
	FallbackReads   int64
	DeliveredMsgs   int
	DroppedMsgs     int
	// FramesDelivered counts transport frames: on the TCP backend, wire
	// frames read off sockets (a batch frame carries many protocol
	// messages, so under pipelined load FramesDelivered ≪ DeliveredMsgs —
	// frames per operation below 1 is the batching working); on the
	// in-memory backend there is no frame concept and it equals
	// DeliveredMsgs.
	FramesDelivered int
	// SendDrops counts outbound messages the transport discarded: a peer's
	// bounded write queue overflowing (TCP), the outbound datagram queue
	// overflowing or an unreachable destination (UDP). The protocols tolerate
	// these as in-transit losses; the counter makes overload visible.
	SendDrops int
	// InboundDrops counts messages discarded at a full inbox on the
	// receiving side. DroppedMsgs is the sum of SendDrops, InboundDrops and
	// DedupDrops.
	InboundDrops int
	// DedupDrops counts datagrams the UDP backend's per-sender at-most-once
	// windows rejected as duplicates or stale replays; always zero on the
	// other backends.
	DedupDrops int
	// MailboxHighWater is the deepest any process's inbound queue has ever
	// been. By default the in-memory transport never drops on overload —
	// the asynchronous model forbids blocking a sender — so sustained
	// overload shows up here as unbounded growth; a bench or simulation
	// that ends with a high-water mark far above PipelineDepth × clients
	// was queueing, not keeping up. With Config.QueueBound set, server
	// mailboxes cap at the bound (so the mark stays at or under it) and
	// the overflow moves to ShedDrops. A socket node's inbound queue is
	// capped at 1 024 messages, so there the mark stops at the cap and
	// overflow shows up as InboundDrops.
	MailboxHighWater int
	// ShedDrops counts messages shed by the opt-in overload bound on the
	// in-memory server mailboxes (Config.QueueBound). Always 0 without
	// it. Together with client-side ErrOverloaded rejections (which the
	// caller observes directly), this is the exact account of where
	// offered load beyond capacity went.
	ShedDrops        int64
	ServerMutations  int64
	ReadRoundsPerOp  float64
	WriteRoundsPerOp float64
	// Durable aggregates every server's write-ahead-log counters across the
	// deployment (Config.DataDir); all zero for in-memory-only deployments.
	Durable DurableStats
	// Groups breaks the deployment's traffic down per replica group, one
	// entry per group in configuration order (a single-group deployment
	// reports one "default" entry). Groups not yet instantiated report zero
	// counters.
	Groups []GroupStats
}

// GroupStats is one replica group's share of a partitioned deployment's
// Stats: how many keys the ring has routed to it so far, its operation
// counts, and its transport session's drop and queueing counters (the
// deployment-wide fields of Stats are the aggregates of these).
type GroupStats struct {
	// Group is the replica group's name.
	Group string
	// Keys counts the registers this store has handed out that the ring
	// placed on this group.
	Keys int
	// Writes, Reads and Ops (their sum) count completed operations on the
	// group's registers.
	Writes, Reads, Ops int64
	// SendDrops, InboundDrops and DedupDrops are the group session's drop
	// counters; MailboxHighWater its deepest inbound queue. See the
	// same-named Stats fields.
	SendDrops, InboundDrops, DedupDrops int
	MailboxHighWater                    int
	// ShedDrops counts messages shed by this group's bounded in-memory
	// server mailboxes (Config.QueueBound); see Stats.ShedDrops.
	ShedDrops int64
	// Durable aggregates the group's servers' write-ahead-log counters
	// (zero when Config.DataDir is empty or the group is uninstantiated).
	Durable DurableStats
}
