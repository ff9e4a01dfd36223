// Command regclient is the client-side companion of cmd/regserver: it acts
// as the deployment's writer or as one of its readers over real sockets —
// TCP by default, or the batched-syscall UDP transport with -transport udp
// (which must match the servers). Like the server it resolves the register
// implementation through the protocol driver registry, so -protocol drives
// any of the repository's protocols against a matching server deployment:
//
//	regclient -id w  -book "$BOOK" -S 4 -t 1 -R 1 write "hello"
//	regclient -id r1 -book "$BOOK" -S 4 -t 1 -R 1 read
//	regclient -id r1 -book "$BOOK" -S 4 -t 1 -R 1 -protocol abd bench -ops 1000
//
// One server deployment multiplexes many named registers; -key selects which
// register to operate on (default: the deployment's default register), and
// the bench subcommand takes -keys N to spread its operations round-robin
// over N registers derived from the -key prefix:
//
//	regclient -id w  -book "$BOOK" -key user/42 write "hello"
//	regclient -id r1 -book "$BOOK" -key user/42 read
//	regclient -id w  -book "$BOOK" -key bench- -keys 16 bench -ops 1000
//
// The bench subcommand reports throughput plus the latency distribution
// (mean, p50, p95, p99, max). With -pipeline N it keeps up to N operations
// in flight through the async API (requests and acknowledgements then ride
// batched wire frames), reporting the same distribution plus an in-flight
// depth histogram:
//
//	regclient -id r1 -book "$BOOK" -pipeline 16 bench -ops 10000
//
// Where bench is closed-loop (each worker waits for its completions, so the
// offered load tracks the deployment's speed), the loadgen subcommand is
// open-loop: it schedules arrivals at -rate ops/sec on a clock and measures
// each operation's latency from its intended arrival — coordinated-omission-
// safe tail latencies. -rates sweeps a list of rates and reports the knee;
// -admission sheds at-depth submissions with ErrOverloaded instead of
// blocking. See loadgen.go:
//
//	regclient -id w -book "$BOOK" -keys 8 loadgen -rate 2000 -duration 10s
//	regclient -id w -book "$BOOK" -keys 8 loadgen -rates 500,1000,2000 -admission 1ms
//
// Both bench and loadgen echo their active configuration as the first output
// line, and both accept their flags before or after the subcommand word.
//
// The deployment parameters (-S, -t, -b, -R) and -protocol must match what
// the servers were started with; the protocol's deployment bound (the fast
// protocols' reader bound, the majority protocols' t < S/2) is checked
// locally before any operation is attempted.
//
// A partitioned deployment (see internal/topology) replaces -book with
// -groups topology.json: the client builds the same consistent-hash ring as
// every server, resolves each key's owning replica group, and binds one
// socket per group it actually talks to, using that group's member book and
// quorum parameters (give the client identity a distinct port in each
// group's members — one socket cannot serve two groups). The route
// subcommand prints the placement without touching the network:
//
//	regclient -groups topo.json -key user/42 route
//	regclient -groups topo.json -key bench- -keys 16 route
//	regclient -id w  -groups topo.json -key user/42 write "hello"
//	regclient -id r1 -groups topo.json -key bench- -keys 64 bench -ops 5000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fastread/internal/driver"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/stats"
	"fastread/internal/topology"
	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/transport/socknet"
	"fastread/internal/types"

	// Register every protocol driver this binary can drive.
	_ "fastread/internal/abd"
	_ "fastread/internal/core"
	_ "fastread/internal/maxmin"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "regclient:", err)
		os.Exit(1)
	}
}

// cliConfig holds every parsed flag plus the subcommand and its operands, so
// flag handling (and the config echo built from it) is testable apart from
// the network setup in run.
type cliConfig struct {
	id        string
	book      string
	groups    string
	protocol  string
	servers   int
	faulty    int
	malicious int
	readers   int
	keyHex    string
	timeout   time.Duration
	ops       int
	key       string
	keysN     int
	pipeline  int
	transport string

	// loadgen flags (see loadgen.go).
	rate      float64
	rates     string
	duration  time.Duration
	arrival   string
	zipfS     float64
	admission time.Duration
	seed      int64
	kneeP99   time.Duration

	command string
	args    []string
}

// parseCLI parses the regclient command line. Flags may appear before or
// after the subcommand (`-ops 1000 bench` and `bench -ops 1000` are the same
// invocation): the remainder after the subcommand is parsed through the same
// flag set, leaving args holding the subcommand's operands.
func parseCLI(args []string) (*cliConfig, error) {
	c := &cliConfig{}
	fs := flag.NewFlagSet("regclient", flag.ContinueOnError)
	fs.StringVar(&c.id, "id", "r1", "client identity: w for the writer, r1..rR for readers")
	fs.StringVar(&c.book, "book", "", "address book: comma-separated id=host:port pairs")
	fs.StringVar(&c.groups, "groups", "", "topology file (JSON) describing a partitioned deployment (replaces -book)")
	fs.StringVar(&c.protocol, "protocol", "fast", "register protocol: "+strings.Join(driver.Names(), " | "))
	fs.IntVar(&c.servers, "S", 4, "number of servers")
	fs.IntVar(&c.faulty, "t", 1, "maximum faulty servers")
	fs.IntVar(&c.malicious, "b", 0, "maximum malicious servers")
	fs.IntVar(&c.readers, "R", 1, "number of readers")
	fs.StringVar(&c.keyHex, "writer-key", "", "hex-encoded 32-byte writer private seed (signing writer) or public key (verifying reader)")
	fs.DurationVar(&c.timeout, "timeout", 5*time.Second, "per-operation timeout")
	fs.IntVar(&c.ops, "ops", 100, "operation count for the bench subcommand")
	fs.StringVar(&c.key, "key", "", "register key to operate on (empty = default register)")
	fs.IntVar(&c.keysN, "keys", 1, "bench/loadgen only: spread operations over N registers named <key>0..<key>N-1")
	fs.IntVar(&c.pipeline, "pipeline", 1, "bench/loadgen only: operations kept in flight per handle (1 = serial)")
	fs.StringVar(&c.transport, "transport", "tcp", "socket transport: tcp | udp (must match the servers)")
	fs.Float64Var(&c.rate, "rate", 1000, "loadgen only: offered load in ops/sec")
	fs.StringVar(&c.rates, "rates", "", "loadgen only: comma-separated ops/sec sweep (overrides -rate); prints one curve point per rate plus the knee")
	fs.DurationVar(&c.duration, "duration", 10*time.Second, "loadgen only: arrival window (per rate step when sweeping)")
	fs.StringVar(&c.arrival, "arrival", "poisson", "loadgen only: arrival process: poisson | fixed")
	fs.Float64Var(&c.zipfS, "zipf", 0, "loadgen only: zipfian key-popularity exponent over -keys (0 = uniform)")
	fs.DurationVar(&c.admission, "admission", 0, "loadgen only: admission budget; at-depth submissions shed with ErrOverloaded after waiting this long (0 = block)")
	fs.Int64Var(&c.seed, "seed", 1, "loadgen only: RNG seed for arrival times and key choice")
	fs.DurationVar(&c.kneeP99, "knee-p99", 50*time.Millisecond, "loadgen sweep only: p99 threshold for the knee finder")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() < 1 {
		return nil, fmt.Errorf("usage: regclient [flags] read | write <value> | bench | loadgen | route [key ...]")
	}
	c.command = fs.Arg(0)
	// Flags may also follow the subcommand (`bench -ops 1000 -pipeline 16`),
	// as the examples above show: parse the remainder through the same set,
	// leaving fs.Args() holding the subcommand's operands.
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return nil, err
	}
	c.args = fs.Args()
	if c.keysN < 1 {
		return nil, fmt.Errorf("-keys must be >= 1, got %d", c.keysN)
	}
	if c.pipeline < 1 {
		return nil, fmt.Errorf("-pipeline must be >= 1, got %d", c.pipeline)
	}
	if c.arrival != "poisson" && c.arrival != "fixed" {
		return nil, fmt.Errorf("-arrival must be poisson or fixed, got %q", c.arrival)
	}
	return c, nil
}

// configLine is the one-line active-configuration echo printed before a
// bench or loadgen run, so a result in a terminal scrollback or a CI log is
// never separated from the parameters that produced it.
func (c *cliConfig) configLine() string {
	line := fmt.Sprintf("config: cmd=%s id=%s protocol=%s transport=%s S=%d t=%d b=%d R=%d key=%q keys=%d pipeline=%d timeout=%v",
		c.command, c.id, c.protocol, c.transport, c.servers, c.faulty, c.malicious, c.readers,
		c.key, c.keysN, c.pipeline, c.timeout)
	if c.command == "loadgen" {
		rates := c.rates
		if rates == "" {
			rates = fmt.Sprintf("%g", c.rate)
		}
		line += fmt.Sprintf(" rates=%s duration=%v arrival=%s zipf=%g admission=%v seed=%d knee-p99=%v",
			rates, c.duration, c.arrival, c.zipfS, c.admission, c.seed, c.kneeP99)
	}
	return line
}

func run(args []string) error {
	c, err := parseCLI(args)
	if err != nil {
		return err
	}
	command := c.command
	drv, ok := driver.Lookup(c.protocol)
	if !ok {
		return fmt.Errorf("unknown -protocol %q (have: %s)", c.protocol, strings.Join(driver.Names(), ", "))
	}

	keys := []string{c.key}
	if (command == "bench" || command == "loadgen" || command == "route") && c.keysN > 1 {
		keys = make([]string, c.keysN)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%d", c.key, i)
		}
	}

	// A topology file turns the client into a router: every key is placed on
	// the deployment-wide consistent-hash ring before any handle is built,
	// and only the groups that actually own one of this run's keys get a
	// socket.
	var (
		topo topology.Topology
		ring *topology.Ring
	)
	if c.groups != "" {
		if c.book != "" {
			return fmt.Errorf("-groups and -book are mutually exclusive: the topology carries each group's address book")
		}
		if topo, err = topology.Load(c.groups); err != nil {
			return err
		}
		if ring, err = topo.Ring(); err != nil {
			return err
		}
	}
	groupOf := func(k string) int {
		if ring == nil {
			return 0
		}
		return ring.Lookup(k)
	}

	if command == "route" {
		if ring == nil {
			return fmt.Errorf("route requires -groups: placement is defined by the topology's ring")
		}
		targets := c.args
		if len(targets) == 0 {
			targets = keys
		}
		for _, k := range targets {
			label := k
			if label == "" {
				label = "(default register)"
			}
			fmt.Printf("%s\t%s\n", label, topo.Groups[ring.Lookup(k)].Name)
		}
		return nil
	}

	id, err := types.ParseProcessID(c.id)
	if err != nil {
		return err
	}
	qcfg := quorum.Config{Servers: c.servers, Faulty: c.faulty, Malicious: c.malicious, Readers: c.readers}
	if command == "bench" || command == "loadgen" {
		fmt.Println(c.configLine())
	}

	// One socket + demux per replica group this run touches, opened lazily.
	// Groups are disjoint deployments with their own address books and quorum
	// shapes, so each connection carries its own quorum config for the
	// handles routed through it.
	type groupConn struct {
		qcfg  quorum.Config
		demux *transport.Demux
	}
	conns := make(map[int]*groupConn)
	var nodes []transport.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	connFor := func(gi int) (*groupConn, error) {
		if c, ok := conns[gi]; ok {
			return c, nil
		}
		// What a topology entry spells out of its quorum shape wins over the
		// -S/-t/-b fallbacks, field by field; without a topology the flags
		// are the deployment.
		var (
			g    topology.Group
			book transport.AddressBook
		)
		if ring != nil {
			g = topo.Groups[gi]
		}
		gq, err := g.Quorum(qcfg, drv.Validate)
		if err != nil {
			return nil, err
		}
		if ring == nil {
			book, err = transport.ParseAddressBook(c.book)
		} else if book, err = transport.BookFromMembers(g.Members); err != nil {
			err = fmt.Errorf("group %q: %w", g.Name, err)
		}
		if err != nil {
			return nil, err
		}
		// Clients always listen on the address-book entry for their identity,
		// so a plain book swap switches an entire deployment between TCP and
		// UDP.
		node, err := socknet.Listen(c.transport, framed.Config{Self: id, Book: book}, nil)
		if err != nil {
			if ring != nil {
				err = fmt.Errorf("group %q: %w", g.Name, err)
			}
			return nil, err
		}
		nodes = append(nodes, node)
		// The physical node is demultiplexed by register key so one process
		// can drive many registers over a single socket identity, exactly as
		// the in-memory Store does.
		c := &groupConn{qcfg: gq, demux: transport.NewDemux(node, protoutil.WireKeyFunc, 0)}
		conns[gi] = c
		return c, nil
	}

	clientCfg := driver.ClientConfig{Quorum: qcfg, Depth: c.pipeline}
	if drv.NeedsSignatures {
		switch id.Role {
		case types.RoleWriter:
			signer, err := signerFromHex(c.keyHex)
			if err != nil {
				return err
			}
			clientCfg.Signer = signer
		case types.RoleReader:
			verifier, err := verifierFromHex(c.keyHex)
			if err != nil {
				return err
			}
			clientCfg.Verifier = verifier
		}
	}

	ctx := context.Background()
	switch id.Role {
	case types.RoleWriter:
		writers := make([]*protoutil.Writer, len(keys))
		for i, k := range keys {
			gc, err := connFor(groupOf(k))
			if err != nil {
				return err
			}
			kCfg := clientCfg
			kCfg.Quorum = gc.qcfg
			kCfg.Key = k
			w, err := drv.NewWriter(kCfg, gc.demux.Route(k))
			if err != nil {
				return err
			}
			writers[i] = w
		}
		if command == "loadgen" {
			return runLoadgen(ctx, c, writers, nil)
		}
		return runWriter(ctx, writers, command, c.args, c.timeout, c.ops, c.pipeline)
	case types.RoleReader:
		readers := make([]*protoutil.Reader, len(keys))
		for i, k := range keys {
			gc, err := connFor(groupOf(k))
			if err != nil {
				return err
			}
			kCfg := clientCfg
			kCfg.Quorum = gc.qcfg
			kCfg.Key = k
			r, err := drv.NewReader(kCfg, gc.demux.Route(k))
			if err != nil {
				return err
			}
			readers[i] = r
		}
		if command == "loadgen" {
			return runLoadgen(ctx, c, nil, readers)
		}
		return runReader(ctx, readers, command, c.timeout, c.ops, c.pipeline)
	default:
		return fmt.Errorf("-id must be the writer (w) or a reader (r1..rR)")
	}
}

// runWriter executes the writer-side subcommands. The bench subcommand
// round-robins its operations over every per-key writer, keeping up to
// depth writes in flight.
func runWriter(ctx context.Context, writers []*protoutil.Writer, command string, args []string, timeout time.Duration, ops, depth int) error {
	switch command {
	case "write":
		if len(args) < 1 {
			return fmt.Errorf("usage: regclient ... write <value>")
		}
		opCtx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		start := time.Now()
		if err := writers[0].Write(opCtx, types.Value(args[0])); err != nil {
			return err
		}
		fmt.Printf("ok in %v\n", time.Since(start).Round(time.Microsecond))
		return nil
	case "bench":
		benchStart := time.Now()
		recorder, inflight, err := pipelinedBench(ctx, ops, depth, timeout,
			func(opCtx context.Context, i int) (func(context.Context) error, error) {
				f, err := writers[i%len(writers)].WriteAsync(opCtx, types.Value(fmt.Sprintf("bench-%d", i)))
				if err != nil {
					return nil, err
				}
				return waitErr(f), nil
			})
		if err != nil {
			return err
		}
		printBench("writes", len(writers), recorder, time.Since(benchStart))
		printPipeline(depth, inflight)
		return nil
	default:
		return fmt.Errorf("the writer supports: write <value> | bench | loadgen")
	}
}

// runReader executes the reader-side subcommands. The bench subcommand
// round-robins its operations over every per-key reader, keeping up to
// depth reads in flight.
func runReader(ctx context.Context, readers []*protoutil.Reader, command string, timeout time.Duration, ops, depth int) error {
	switch command {
	case "read":
		opCtx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		start := time.Now()
		res, err := readers[0].Read(opCtx)
		if err != nil {
			return err
		}
		fmt.Printf("value=%s version=%d round-trips=%d latency=%v\n",
			res.Value, res.Timestamp, res.RoundTrips, time.Since(start).Round(time.Microsecond))
		return nil
	case "bench":
		benchStart := time.Now()
		recorder, inflight, err := pipelinedBench(ctx, ops, depth, timeout,
			func(opCtx context.Context, i int) (func(context.Context) error, error) {
				f, err := readers[i%len(readers)].ReadAsync(opCtx)
				if err != nil {
					return nil, err
				}
				return waitErr(f), nil
			})
		if err != nil {
			return err
		}
		printBench("reads", len(readers), recorder, time.Since(benchStart))
		printPipeline(depth, inflight)
		return nil
	default:
		return fmt.Errorf("readers support: read | bench | loadgen")
	}
}

// waitErr is a future's wait with the result dropped: what the bench and
// load generators want of a write and of a read alike.
func waitErr[T any](f *protoutil.Future[T]) func(context.Context) error {
	return func(ctx context.Context) error {
		_, err := f.Result(ctx)
		return err
	}
}

// pipelinedBench drives ops operations with up to depth in flight: submit
// returns a wait function resolving operation i, and the window harvests the
// oldest operation whenever it is full. Latency is measured submit-to-
// resolve (a submission blocked by a full per-handle pipeline counts against
// the operation, exactly what a closed-loop caller would see); the in-flight
// histogram samples the window occupancy at each submission.
func pipelinedBench(ctx context.Context, ops, depth int, timeout time.Duration,
	submit func(opCtx context.Context, i int) (func(context.Context) error, error)) (*stats.LatencyRecorder, *stats.IntHistogram, error) {

	recorder := stats.NewLatencyRecorder(ops)
	inflight := &stats.IntHistogram{}
	type pending struct {
		wait   func(context.Context) error
		cancel context.CancelFunc
		start  time.Time
		idx    int
	}
	window := make([]pending, 0, depth)
	harvest := func(p pending) error {
		// The operation's own context carries the timeout; the wait itself
		// needs no second deadline.
		err := p.wait(context.Background())
		p.cancel()
		if err != nil {
			return fmt.Errorf("op %d: %w", p.idx, err)
		}
		recorder.Record(time.Since(p.start))
		return nil
	}
	for i := 0; i < ops; i++ {
		if len(window) == depth {
			if err := harvest(window[0]); err != nil {
				return nil, nil, err
			}
			window = window[1:]
		}
		inflight.Observe(len(window))
		opCtx, cancel := context.WithTimeout(ctx, timeout)
		start := time.Now()
		wait, err := submit(opCtx, i)
		if err != nil {
			cancel()
			return nil, nil, fmt.Errorf("submit op %d: %w", i, err)
		}
		window = append(window, pending{wait: wait, cancel: cancel, start: start, idx: i})
	}
	for _, p := range window {
		if err := harvest(p); err != nil {
			return nil, nil, err
		}
	}
	return recorder, inflight, nil
}

// printPipeline reports the pipelining shape of a bench run.
func printPipeline(depth int, inflight *stats.IntHistogram) {
	fmt.Printf("pipeline: depth=%d in-flight at submit: mean=%.1f max=%d histogram: %s\n",
		depth, inflight.Mean(), inflight.Max(), inflight)
}

// printBench reports a bench run: throughput plus the full latency
// distribution (p50/p95/p99 rather than a bare mean — tail latency is what
// an operator provisions for).
func printBench(what string, keyCount int, recorder *stats.LatencyRecorder, elapsed time.Duration) {
	summary := recorder.Summary()
	fmt.Printf("%s over %d key(s): %d ops in %v (%.0f ops/s)\n",
		what, keyCount, summary.Count, elapsed.Round(time.Millisecond), stats.Throughput(summary.Count, elapsed))
	fmt.Printf("latency: mean=%v p50=%v p95=%v p99=%v max=%v\n",
		summary.Mean.Round(time.Microsecond), summary.Median.Round(time.Microsecond),
		summary.P95.Round(time.Microsecond), summary.P99.Round(time.Microsecond),
		summary.Max.Round(time.Microsecond))
}
