// Command regserver runs one register server process over real sockets —
// TCP by default, or the batched-syscall UDP transport with -transport udp
// (every process in a deployment must use the same transport). A full
// deployment consists of S regserver processes (one per server identity)
// plus clients driven by cmd/regclient.
//
// The protocol is selected with -protocol and resolved through the protocol
// driver registry, so one binary serves every register implementation in the
// repository: the paper's fast register (default), its arbitrary-failure
// variant, the ABD baseline, the max-min variant and the regular register.
// The deployment parameters (-S, -t, -b, -R) must match what the clients are
// started with.
//
// One deployment serves MANY named registers: every protocol message carries
// a register key, and the server keeps fully separate state per key (lazily
// instantiated on first use), so no per-register configuration or restart is
// needed — point regclient at any -key and the register exists.
//
// With -data-dir the server is durable: every mutation is write-ahead logged
// to the given private directory before it is acknowledged (flush policy per
// -fsync), state is periodically snapshotted, and a restarted process recovers
// its registers and incarnation counter from disk — a kill -9 loses at most
// what the fsync policy permits. In a -groups deployment the topology's epoch
// is stamped into the log so recovery refuses state from a reconfigured
// keyspace layout.
//
// The address book is a comma-separated list of id=host:port pairs covering
// every process in the deployment, e.g.:
//
//	-book "s1=127.0.0.1:7101,s2=127.0.0.1:7102,s3=127.0.0.1:7103,s4=127.0.0.1:7104,w=127.0.0.1:7200,r1=127.0.0.1:7201"
//
// Example 4-server ABD deployment (each in its own terminal):
//
//	regserver -id s1 -book "$BOOK" -protocol abd -S 4 -t 1 -R 1
//	regserver -id s2 -book "$BOOK" -protocol abd -S 4 -t 1 -R 1
//	regserver -id s3 -book "$BOOK" -protocol abd -S 4 -t 1 -R 1
//	regserver -id s4 -book "$BOOK" -protocol abd -S 4 -t 1 -R 1
//
// A partitioned deployment (see internal/topology) replaces -book with a
// shared topology file plus the name of the replica group this process
// belongs to:
//
//	regserver -id s1 -groups topo.json -group g2 -protocol abd -R 1
//
// The group's quorum parameters (S, t, b) and address book then come from
// its topology entry, so the only per-process variation inside a group is
// -id; -S/-t/-b act as fallbacks for topology entries that omit them.
// Groups are fully disjoint deployments — a server only ever exchanges
// messages with its own group's members — and clients route each key to its
// owning group with the same consistent-hash ring this file describes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"fastread/internal/driver"
	"fastread/internal/durable"
	"fastread/internal/quorum"
	"fastread/internal/topology"
	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/transport/socknet"
	"fastread/internal/types"

	// Register every protocol driver this binary can serve.
	_ "fastread/internal/abd"
	_ "fastread/internal/core"
	_ "fastread/internal/maxmin"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "regserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("regserver", flag.ContinueOnError)
	var (
		idFlag    = fs.String("id", "s1", "server identity (s1, s2, ...)")
		bookFlag  = fs.String("book", "", "address book: comma-separated id=host:port pairs")
		groupsArg = fs.String("groups", "", "topology file (JSON) describing a partitioned deployment (replaces -book, requires -group)")
		groupArg  = fs.String("group", "", "replica group this server belongs to (requires -groups)")
		protocol  = fs.String("protocol", "fast", "register protocol: "+strings.Join(driver.Names(), " | "))
		servers   = fs.Int("S", 4, "number of servers in the deployment")
		faulty    = fs.Int("t", 1, "maximum faulty servers")
		bad       = fs.Int("b", 0, "maximum malicious servers (fast-byz)")
		readers   = fs.Int("R", 1, "number of reader processes")
		pubKey    = fs.String("writer-pubkey", "", "hex-encoded writer public key (signature-verifying protocols)")
		listen    = fs.String("listen", "", "listen address override (defaults to the address book entry)")
		trans     = fs.String("transport", "tcp", "socket transport: tcp | udp (must match the clients)")
		dataDir   = fs.String("data-dir", "", "private durable-state directory for THIS server process: mutations are write-ahead logged there before acknowledgement and recovered on restart (empty = in-memory only)")
		fsyncArg  = fs.String("fsync", "interval", "durable log flush policy with -data-dir: always | interval | never")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	drv, ok := driver.Lookup(*protocol)
	if !ok {
		return fmt.Errorf("unknown -protocol %q (have: %s)", *protocol, strings.Join(driver.Names(), ", "))
	}
	id, err := types.ParseProcessID(*idFlag)
	if err != nil {
		return err
	}
	if id.Role != types.RoleServer {
		return fmt.Errorf("-id must name a server (s1, s2, ...), got %q", *idFlag)
	}
	var (
		book  transport.AddressBook
		group topology.Group // zero: an unpartitioned deployment
		epoch uint64
	)
	switch {
	case *groupsArg != "":
		if *groupArg == "" {
			return fmt.Errorf("-groups requires -group: name the replica group this server serves")
		}
		if *bookFlag != "" {
			return fmt.Errorf("-groups and -book are mutually exclusive: the topology carries each group's address book")
		}
		topo, err := topology.Load(*groupsArg)
		if err != nil {
			return err
		}
		gi, err := topo.GroupIndex(*groupArg)
		if err != nil {
			return err
		}
		group = topo.Groups[gi]
		if book, err = transport.BookFromMembers(group.Members); err != nil {
			return fmt.Errorf("group %q: %w", group.Name, err)
		}
		// The topology's epoch is stamped into this server's durable log: a
		// restart under a RECONFIGURED topology (different epoch) refuses to
		// resurrect state persisted under the old keyspace layout.
		epoch = topo.Epoch
	case *groupArg != "":
		return fmt.Errorf("-group requires -groups: point it at the deployment's topology file")
	default:
		if book, err = transport.ParseAddressBook(*bookFlag); err != nil {
			return err
		}
	}
	// What a topology entry spells out of its quorum shape wins over the
	// -S/-t/-b fallbacks, field by field: inside a fully described group the
	// only per-process flag is -id.
	qcfg, err := group.Quorum(quorum.Config{Servers: *servers, Faulty: *faulty, Malicious: *bad, Readers: *readers}, drv.Validate)
	if err != nil {
		return err
	}
	if group.Name != "" && id.Index > qcfg.Servers {
		return fmt.Errorf("-id %s exceeds group %q (S=%d)", id, group.Name, qcfg.Servers)
	}

	serverCfg := driver.ServerConfig{ID: id, Quorum: qcfg}
	var durCounters *durable.Counters
	if *dataDir != "" {
		durCounters = &durable.Counters{}
		serverCfg.Durable = &durable.Options{
			Dir:      *dataDir,
			Fsync:    durable.Policy(*fsyncArg),
			Epoch:    epoch,
			Counters: durCounters,
		}
	}
	if drv.NeedsSignatures {
		verifier, err := ParseVerifier(*pubKey)
		if err != nil {
			return err
		}
		serverCfg.Verifier = verifier
	}

	node, err := socknet.Listen(*trans, framed.Config{Self: id, ListenAddr: *listen, Book: book}, nil)
	if err != nil {
		return err
	}
	defer node.Close()

	server, err := drv.NewServer(serverCfg, node)
	if err != nil {
		return err
	}
	server.Start()
	defer server.Stop()

	// The group id rides both the startup and shutdown lines so an operator
	// tailing sixteen process logs can attribute every line to its quorum
	// group without cross-referencing the topology file.
	groupNote := ""
	if group.Name != "" {
		groupNote = " group=" + group.Name
	}
	fmt.Printf("register server %s%s listening on %s/%s (protocol=%s %v, serving all register keys)\n",
		id, groupNote, *trans, node.Addr(), drv.Name, qcfg)
	if durCounters != nil {
		// Recovery already ran inside NewServer; say what came back so an
		// operator restarting a crashed server sees its state survived.
		ds := durCounters.Snapshot()
		fmt.Printf("durable %s%s: dir=%s fsync=%s epoch=%d incarnation=%d segments_replayed=%d records_recovered=%d torn_tail_trims=%d\n",
			id, groupNote, *dataDir, *fsyncArg, epoch, ds.Incarnation, ds.SegmentsReplayed, ds.RecordsRecovered, ds.TornTailTrims)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	<-stop
	// A graceful shutdown flushes and snapshots the durable log before the
	// final stats print; Stop is idempotent, so the deferred call becomes a
	// no-op.
	server.Stop()
	// Surface traffic that was silently discarded (full inbox, bounded
	// write-queue overflow, unreachable peers, duplicate datagrams), and how
	// deep the inbound queue got, so operators notice overload or partitions
	// the asynchronous protocols themselves tolerate without complaint.
	stats := node.Stats()
	fmt.Printf("shutting down %s%s: transport=%s delivered=%d frames=%d dropped_inbound=%d dropped_send=%d dedup_drops=%d high_water=%d\n",
		id, groupNote, *trans, stats.DeliveredMsgs, stats.FramesDelivered, stats.InboundDrops, stats.SendDrops, stats.DedupDrops, stats.MailboxHighWater)
	if durCounters != nil {
		ds := durCounters.Snapshot()
		fmt.Printf("durable shutdown %s%s: incarnation=%d appends=%d fsyncs=%d snapshots=%d snapshot_records=%d append_errors=%d log_failed=%t\n",
			id, groupNote, ds.Incarnation, ds.Appends, ds.Fsyncs, ds.Snapshots, ds.SnapshotRecords, ds.AppendErrors, server.LogFailed())
	}
	return nil
}
