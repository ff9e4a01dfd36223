// Package fastread is a Go implementation of the fast single-writer
// multi-reader (SWMR) atomic register of Dutta, Guerraoui, Levy and Vukolić,
// "How Fast can a Distributed Atomic Read be?" (PODC 2004), together with the
// baselines the paper compares against — grown into a multi-register store
// that serves many named registers from one shared deployment.
//
// A register is replicated over S server processes, of which up to t may
// fail (and, in the arbitrary-failure variant, up to b ≤ t may be
// malicious). A single writer and up to R readers access it. The paper's
// central result is that every read and every write can complete in a single
// communication round-trip — a fast implementation — if and only if
// R < S/t − 2 (crash failures) or S > (R+2)·t + (R+1)·b (arbitrary
// failures). This package implements those fast algorithms, the classic
// two-round ABD register, the decentralised max-min variant, a fast regular
// register, and the machinery to reproduce the paper's results (adversarial
// lower-bound schedules, atomicity checking, workloads and benchmarks).
//
// # Quick start: one register
//
// ExampleNewStore deploys the paper's setting — one register, its writer and
// its readers — as the default register (the empty key) of a Store: a
// write, a one-round-trip read, a server crash, and another one-round-trip
// read. Its output is checked by go test.
//
// # Quick start: many registers, one deployment
//
// A Store multiplexes an open-ended keyspace of named registers over ONE set
// of server processes. Each key is an independent register with the full
// per-register atomicity guarantee; servers keep separate per-key state,
// lazily instantiated, and the writer/reader processes join the network once
// and demultiplex their traffic by the register key carried in every
// protocol message.
//
//	store, err := fastread.NewStore(fastread.Config{Servers: 4, Faulty: 1, Readers: 1})
//	if err != nil { ... }
//	defer store.Close()
//
//	reg, _ := store.Register("user/42/profile")
//	_ = reg.Writer().Write(ctx, []byte("v1"))
//	r, _ := reg.Reader(1)
//	res, _ := r.Read(ctx)        // still one round-trip, per key
//
// Single-register code uses the default register, the empty key; it grows
// into the keyed API by registering more keys on the same store.
//
// Use Config.Protocol to select among the fast crash-tolerant register
// (default), the Byzantine-tolerant fast register, the ABD baseline, the
// max-min variant and the regular register — which is ABD's register with
// the read's write-back left out: the same servers and writer, a one-round
// read, and no atomicity across concurrent reads. The resilience helpers
// (FastReadPossible, MaxFastReaders, MinServersForFast) expose the paper's
// exact bounds; they are per-deployment properties and therefore hold for
// every key of a Store at once.
//
// # Transports
//
// Config.Transport selects the message-passing backend the deployment runs
// on; the protocols only ever see an abstract node, so every protocol runs
// unchanged over every backend.
//
//	// Default: the in-memory asynchronous network (full fault injection).
//	store, _ := fastread.NewStore(cfg)
//
//	// The same deployment over real TCP sockets on loopback.
//	cfg.Transport = fastread.TCP(nil)
//	store, _ = fastread.NewStore(cfg)
//
//	// The raw-speed tier: UDP datagrams with batched send/receive syscalls
//	// and per-sender at-most-once delivery windows.
//	cfg.Transport = fastread.UDP(nil)
//	store, _ = fastread.NewStore(cfg)
//
//	// Pinned local endpoints. NewStore starts the WHOLE deployment in this
//	// process, so every book address must be bindable on this machine.
//	cfg.Transport = fastread.TCP(map[string]string{
//		"s1": "127.0.0.1:7101", "s2": "127.0.0.1:7102", "s3": "127.0.0.1:7103",
//		"w": "127.0.0.1:7200", "r1": "127.0.0.1:7201",
//	})
//
// Capabilities differ only in fault injection: CrashServer is an in-memory
// capability and reports ErrUnsupported on TCP and UDP, where the
// real network is the fault injector (kill a process to crash it; on UDP,
// WithReceiveFilter drops datagrams deterministically for loss testing —
// the protocols never retransmit, tolerating loss through quorum slack
// exactly as the paper's asynchronous lossy model intends). Time in memory is
// virtual or absent: delays exist only on the simulator's virtual clock (see
// below), and Config has no delay fields.
// TCP and UDP are two carriers of one framed socket core
// (internal/transport/framed): the same frame body, inbound path and
// counters behind a length prefix on a stream or a sequence number in a
// datagram. Deployments spanning processes or machines are driven by
// cmd/regserver and cmd/regclient (-transport tcp|udp), which serve the same
// protocols via the same driver registry and bind their sockets through the
// same backend switch.
//
// # Scaling out: partitioned deployments
//
// Config.Groups partitions the keyspace across independent replica groups,
// turning the Store into a router. Placement is a consistent-hash ring over
// the ordered group names (internal/topology — the topology seam shared by
// this package and the cmd binaries): Register resolves a key's owning group
// before any handle exists, so routing is one hash plus a binary search at
// Register time and the per-operation path is untouched — same round trips,
// same zero steady-state allocations.
//
//	store, _ := fastread.NewStore(fastread.Config{
//		Servers: 4, Faulty: 1, Readers: 1, // inherited by groups that omit them
//		Groups: []fastread.GroupSpec{
//			{Name: "g0"}, {Name: "g1"},
//			{Name: "wide", Servers: 7, Faulty: 3}, // groups may differ
//		},
//	})
//	reg, _ := store.Register("user/42")
//	reg.Group()                          // the owning group's name
//
// The correctness argument rests on one invariant: groups are fully
// DISJOINT deployments. Each group has its own transport session, server
// set, quorum configuration and writer key pair, and no message ever
// crosses groups — so each group is exactly the single-deployment model the
// paper's proofs are about, and per-register atomicity composes across the
// partition with nothing to prove. Anything that would couple groups
// (a cross-group read, a shared server identity, a transaction) is outside
// the model. The ring is a pure function of the ordered group names:
// renaming or reordering groups re-routes the keyspace, so both are part of
// a deployment's identity.
//
// Every group starts in NewStore, Stats reports a per-group breakdown
// (Stats.Groups), and multi-process deployments ship the same group list as
// a JSON topology file consumed by regserver/regclient (-groups), which
// build the identical ring. Fault injection stays per-group: CrashServer(i)
// and RestartServer(i) act on server i of every group that has one.
//
// # Pipelined operations
//
// Every handle also exposes an asynchronous API: Writer.WriteAsync and
// Reader.ReadAsync submit an operation and return a future without waiting
// for its quorum, keeping up to Config.PipelineDepth operations of that
// handle in flight (submissions beyond the depth block until one completes).
// The blocking Read/Write are exactly the depth-one case. Pipelining is a
// THROUGHPUT feature: a serial client pays a full round trip per operation,
// while a pipeline overlaps them — and underneath, the transports coalesce
// the overlapped traffic into batched wire frames (one frame per peer per
// flush on TCP) and servers answer each burst with one batched send per
// client, so the per-operation wire cost falls with depth too.
//
//	f1, _ := r.ReadAsync(ctx)
//	f2, _ := r.ReadAsync(ctx)        // in flight concurrently with f1
//	res1, _ := f1.Result(ctx)
//	res2, _ := f2.Result(ctx)
//
// Semantics under pipelining: writes are applied in submission order (each
// WriteAsync takes the next timestamp and broadcasts before returning, and
// transports deliver each link FIFO), so the single-writer regime of the
// model is preserved; each in-flight read is an independent operation
// matched to its acknowledgements by its own nonce, and cancelling one
// (through the ctx given to ReadAsync or Result) never disturbs siblings.
// Futures severed by Store.Close resolve with ErrStoreClosed.
//
// Depth guidance: the default (16) suits most workloads. Raise it when the
// network round trip dominates (high-latency links — throughput scales
// roughly with depth until it saturates) and keep it small when operation
// LATENCY matters more than throughput, since queued submissions wait behind
// their siblings. Depth bounds memory per handle: each in-flight operation
// holds its request and collected acknowledgements.
//
// # Protocol drivers
//
// A Protocol IS its name in the internal/driver registry ("fast", "abd", ...;
// any other registered name selects that driver the same way), and the store
// resolves Config.Protocol with one registry lookup:
// each protocol package registers its server/writer/reader factories, and
// deployment code — the store, the cmd binaries — composes drivers with
// transports without naming any protocol. Adding a protocol is one
// registration file in its package plus a registry name; no switch
// statements exist on the deployment path. The client factories hand out
// the engine's own pointers (*protoutil.Writer, *protoutil.Reader): between
// a public handle and the engine that runs its round trips there is no
// interface and no second future or result type, and ReadResult's field
// names are the one conversion, made at the public boundary.
//
// # Performance and buffer ownership
//
// The per-message hot path (decode request → mutate per-key state → encode
// ack) is allocation-free in steady state: the codec exposes append-style
// encoding and aliasing decodes backed by sync.Pool scratch, the in-memory
// transport routes without a network-wide lock, the TCP transport batches
// frames per peer connection, and Byzantine deployments memoise verified
// writer signatures. Every protocol server (and the Byzantine stand-in) is
// one generic shell, internal/protoutil.Shell — node, executor, per-key state
// map, write-ahead log with LSN-guarded replay, Start/Stop — parameterised by
// the protocol's state, handler and record mapping; a protocol package
// contributes nothing else on the server side. Clients mirror it: every
// writer and reader of every protocol runs on one engine,
// internal/protoutil.Client — slot, nonce, register-before-broadcast, quorum
// collection, round hand-over, future — parameterised by the protocol's
// round description (request builder, acknowledgement acceptance, quorum
// size, what a quorum means), and all four protocols share its one
// single-writer client (protoutil.Writer) and its one reader
// (protoutil.Reader, running the protocol's read rounds). The shell decodes
// each request once and handles it as its node's one consumer — the paper's
// one sequential step per message, in delivery order.
//
// Between a Send and the code that handles the message there is exactly one
// queue — the destination node's transport.Queue, the same type on the
// in-memory and the socket backends — and at most one wake-up. A live
// server's executor serves its node's queue on its own goroutine
// (transport.Claim): that is the one wake-up of a request, where it has one.
// A client node is
// push-delivered: the goroutine that puts an acknowledgement into the idle
// node — a server executor's run-end flush in memory, a read loop on sockets
// — routes it itself and CALLS the engine of the handle it is for (a demux
// route is a table entry bound to its protoutil.Pipeline, not a goroutine and
// a channel), so a register costs no goroutine and a few kilobytes, and the
// only goroutine an acknowledgement wakes is the caller waiting on its future
// (or, for a blocking call, its pooled Call). A client identity's demux pump
// wakes only for a backlog such a run leaves behind. Every consumer is bound
// to its node before its constructor returns. An in-memory server without a
// log never blocks in a run, so a client's broadcast takes the run of every
// such server it finds idle (transport.TakerRuns) and delivers it on the
// client's goroutine once the handle's lock is released: a serial in-memory
// operation is one chain of calls on its caller — each server's handler, its
// ack flush, the client engine and the quorum's completion — with no
// wake-up, and when it returns every idle server has applied it. The request
// itself is still enqueued under the lock, so a handle's pipelined requests
// reach every server in nonce order. Every other send only enqueues: a
// server's gossip, a socket read loop, and any send to a durable server,
// whose run ends in a commit that may wait on the disk. A send to a client
// node may run that client's engine, which never blocks. Under a virtual
// clock every consumer, servers included, is push-delivered by the clock
// event that delivers to it, since there a Send only schedules (see below). Channels survive behind Node.Inbox — the Queue's own pump —
// for code that wants to select on one (tests, the layer benchmarks); the
// product path does not go through them.
//
// Anyone writing protocol code must follow the codec's buffer-ownership
// rules — encoded payloads are immutable, decoded views may alias them, and
// retained data is copied exactly at its retention point — spelled out in
// internal/wire/pool.go. The sole-mutator discipline those rules lean on is
// per server: its one consumer handles every message, one run at a time (on
// the executor's goroutine, on a client's that took the run, or under a
// virtual clock on the clock's), so it is every register's only mutator.
//
// Batch frames extend the same rules end to end: a wire.Batch envelope packs
// many messages into one transport payload, the per-message views produced
// when it is expanded ALIAS the one batch buffer, and a flushed batch buffer
// is never reused by its sender while a receiver may still hold a view. A
// server keeps none: it copies an adopted value into its register's own
// buffers, so a frame is free once its last message is handled.
//
// Where buffers cross goroutines at a high rate they are recyclable: each
// inbound socket frame, and each acknowledgement (or ack envelope) a server's
// coalescer encodes on any transport, lives in a REFERENCE-COUNTED arena
// (wire.Arena) rather than a garbage-collected allocation. The discipline is
// small and strict. Every delivered message carries exactly one reference to
// its buffer's arena; a consumer that retains bytes beyond the handler's
// return without copying them — a pipelined client detaching an
// acknowledgement until its round completes — takes its own reference with
// Ref at that retention point; every owner calls Release exactly once
// when done, and the last Release recycles the buffer for the next message.
// The failure modes are deliberately asymmetric: a missing Release only leaks
// the buffer to the GC (views stay valid forever, the pre-arena behaviour),
// a Release too many would hand live bytes to the next message and therefore
// PANICS immediately, and a missing Ref reads poisoned bytes in race builds.
// See internal/wire/arena.go for the full rules.
//
// # Virtual time and deterministic simulation
//
// The simulator runs the in-memory transport on a virtual clock. It builds
// the clocked network itself (sim.Replayable, which attaches a Store to it
// through internal/seam) and keeps it, to hold links and isolate processes
// on. Deliveries, timeouts and injected faults become events in a priority
// queue, fired one at a time on one goroutine. Every consumer on such a
// network is push-delivered, so the event that delivers a message runs the
// server's handler, its log commit and ack flush, or the client completion,
// and every message they send is a later event: an event's whole cascade is
// done when it returns, whatever the goroutine schedule. A delivery no
// consumer takes inside its event — a node read through Inbox, or one
// nobody claimed — fails that Step instead of waiting. Under the virtual
// clock a deployment must not consult wall time: timers must be scheduled
// through the clock, and nonce sources must derive from clock.Now() rather
// than time.Now(), or runs stop being reproducible. The scenario DSL, the
// seed-sweeping explorer and the trace shrinker built on this live in
// internal/sim and cmd/simexplore. The paper's
// own tables run there too: internal/experiments states E1–E8 as scenarios
// and scripts on the virtual clock, with latencies in message delays (a fast
// read is exactly 2Δ, max-min 3Δ, ABD 4Δ), and REPRODUCTION.md is their
// checked-in, byte-reproducible output (go run ./cmd/fastbench -markdown).
//
// # Overload control and latency under load
//
// Closed-loop benchmarks (blocked workers) cannot observe queueing
// collapse: their offered load slows down exactly when the system does. The
// open-loop generator in internal/workload schedules arrivals on a clock at
// a target rate and charges each operation's latency from its INTENDED
// arrival time — the coordinated-omission-safe discipline — so stalls are
// charged to every operation scheduled during them. Overload behaviour is
// opt-in and two-sided: Config.AdmissionWait turns the pipeline's at-depth
// blocking into fast-fail admission (a submission that cannot get a slot
// within the budget returns ErrOverloaded instead of queueing), and
// Config.QueueBound caps each server's in-memory mailbox, shedding excess
// messages into Stats.ShedDrops rather than growing it without bound.
// QueueBound deliberately never bounds a client's acknowledgement mailbox:
// dropping acks could starve quorums that were already completable.
// Both knobs default to off, preserving the original never-drop semantics.
//
// The benchmark is cmd/benchreport (its own module; BENCHMARK.json declares
// its workloads and metrics); Go benchmarks quantifying each layer live in
// bench_test.go. BENCH_2.json … BENCH_10.json are hand-written records of
// PRs 2–10 (BENCH_10.json: PR 10's open-loop throughput-vs-p99 curves with
// knee points) — historical, and not comparable with the benchmark's output.
package fastread
