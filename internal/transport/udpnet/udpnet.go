// Package udpnet is the datagram carrier of the framed socket core: it
// implements the transport.Node interface over UDP — the raw-speed tier of
// the socket transports. Configuration, frame body, inbound path and counters
// are the embedded framed.Core, shared with tcpnet; what is here is what a
// datagram socket needs. Where tcpnet spends syscalls
// on connection management and in-order byte streams the protocols never
// asked for, udpnet maps the paper's asynchronous lossy network directly onto
// datagrams: a message either arrives whole or it does not, and the register
// protocols already tolerate loss by construction (they only ever wait for
// S−t of S replies and never retransmit).
//
// What UDP does NOT give us — and the transport must add — is at-most-once
// delivery: datagrams can be duplicated in flight, and a duplicated WRITE ack
// is indistinguishable from a fresh one to the quorum counters. Every
// datagram therefore carries a 64-bit sequence number and receivers keep a
// per-sender dedup window (highest sequence seen plus a 64-bit bitmap of the
// recent past); duplicates and stale replays are dropped and counted. The
// sequence counter is seeded from the wall clock at start-up so a restarted
// process never replays sequence numbers its peers have already seen.
//
// Syscall batching replaces tcpnet's stream coalescing: outbound datagrams
// from all senders funnel through one bounded queue drained by a single
// sender goroutine that ships up to sendBatchSize datagrams per sendmmsg(2)
// call; the receive side reads up to recvBatchSize datagrams per recvmmsg(2)
// call. On platforms without the mmsg syscalls (or when the kernel rejects
// them) both paths degrade to one-datagram-per-syscall loops with identical
// semantics. Senders never block: a full outbound queue drops the datagram
// whole (counted), exactly like a lossy link.
//
// A datagram is the uint64 sequence number followed by the framed body —
// tcpnet's frame minus the length prefix (datagram boundaries are
// self-delimiting) — so the batch-envelope framing the executor coalescers
// emit travels unchanged: a datagram whose kind is wire.BatchKind expands
// into per-message views aliasing one shared refcounted arena, exactly as on
// TCP.
package udpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// maxDatagramSize bounds one datagram, comfortably under UDP's 65,507-byte
// payload ceiling. Inbound reads use buffers of exactly this size; anything
// longer is truncated by the kernel and then rejected by the parser.
const maxDatagramSize = 60 << 10

// packetOverhead is the per-datagram header apart from the kind string: the
// uint64 sequence number plus the framed body header.
const packetOverhead = 8 + framed.HeaderOverhead

// maxPayloadSize bounds a single outbound payload so the full datagram
// (header + longest kind string) stays inside maxDatagramSize.
const maxPayloadSize = maxDatagramSize - packetOverhead - 64

// sendBatchSize is the number of datagrams shipped per sendmmsg call, and
// recvBatchSize the number read per recvmmsg call.
const (
	sendBatchSize = 32
	recvBatchSize = 32
)

// outboundQueueLen bounds datagrams awaiting the sender goroutine. Senders
// never block on the socket; overflow is dropped whole and counted.
const outboundQueueLen = 1024

// packet is one encoded outbound datagram queued for the sender goroutine.
type packet struct {
	buf  []byte // complete datagram (seq + frame), pooled
	addr *net.UDPAddr
	msgs int // protocol messages inside, for drop accounting
}

var packetPool = sync.Pool{New: func() any { return &packet{buf: make([]byte, 0, 2048)} }}

func putPacket(p *packet) {
	p.buf = p.buf[:0]
	p.addr = nil
	p.msgs = 0
	packetPool.Put(p)
}

// Node is one process attached to the UDP network.
type Node struct {
	*framed.Core
	conn *net.UDPConn
	out  chan *packet
	done chan struct{}

	filter func(from types.ProcessID) bool // packet-loss injection, see Listen

	mu    sync.Mutex
	peers map[types.ProcessID]*net.UDPAddr

	// seq is the node-wide outbound sequence counter, seeded from the wall
	// clock so a restart never reuses sequence numbers already seen by
	// peers' dedup windows. One counter covers all destinations: receivers
	// key their windows by sender, and gaps (sequences spent on other
	// destinations) are indistinguishable from loss, which the window
	// tolerates by design.
	seq atomic.Uint64

	// dedup is owned by the read loop goroutine; no lock needed.
	dedup map[types.ProcessID]*dedupWindow

	// bs holds the platform batch-syscall state (nil when unavailable).
	bs *batchState

	wg sync.WaitGroup
}

var (
	_ transport.Node        = (*Node)(nil)
	_ transport.ArenaSender = (*Node)(nil)
)

// Listen binds a UDP node for the given process. filter, when non-nil, is
// the receive-side packet-loss injection hook: it sees the claimed sender of
// every inbound datagram and returning false drops the datagram exactly as if
// the network had lost it (the protocols must complete through the surviving
// quorum). It must be safe for concurrent use.
func Listen(cfg framed.Config, filter func(from types.ProcessID) bool) (*Node, error) {
	addr, err := cfg.BindAddr()
	if err != nil {
		return nil, err
	}
	conn, _, err := bind(addr)
	if err != nil {
		return nil, err
	}
	return newNode(cfg, conn, filter), nil
}

// bind opens a datagram socket and reports the address it landed on.
func bind(addr string) (*net.UDPConn, string, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("udpnet: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, "", fmt.Errorf("udpnet: listen %s: %w", addr, err)
	}
	return conn, conn.LocalAddr().String(), nil
}

// newNode wraps a bound socket in a running Node.
func newNode(cfg framed.Config, conn *net.UDPConn, filter func(types.ProcessID) bool) *Node {
	// Generous kernel buffers absorb bursts the batched syscalls have not
	// drained yet; loss past that point is the lossy-link model at work.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	n := &Node{
		Core:   framed.NewCore(cfg),
		conn:   conn,
		out:    make(chan *packet, outboundQueueLen),
		done:   make(chan struct{}),
		filter: filter,
		peers:  make(map[types.ProcessID]*net.UDPAddr),
		dedup:  make(map[types.ProcessID]*dedupWindow),
		bs:     newBatchState(conn),
	}
	n.seq.Store(uint64(time.Now().UnixMicro()))
	n.wg.Add(2)
	go n.readLoop()
	go n.sendLoop()
	return n
}

// Addr returns the address the node is bound to (useful with ":0").
func (n *Node) Addr() string { return n.conn.LocalAddr().String() }

// Send implements transport.Node. The payload is fully copied into a pooled
// datagram buffer before Send returns; ownership is NOT retained. Messages to
// unknown destinations, oversized single messages and messages arriving at a
// full outbound queue are dropped (and counted) — never blocking the sender,
// which is the datagram analogue of tcpnet's bounded write queue. A batch
// envelope too large for one datagram is split into several full datagrams
// rather than dropped.
func (n *Node) Send(to types.ProcessID, kind string, payload []byte) error {
	if n.Closed() {
		return framed.ErrClosed
	}
	if len(payload) > maxPayloadSize {
		if kind == wire.BatchKind && wire.IsBatch(payload) {
			return n.sendChunked(to, payload)
		}
		n.CountSendDrop(1)
		return fmt.Errorf("udpnet: payload too large (%d bytes)", len(payload))
	}
	return n.sendOne(to, kind, payload)
}

// SendArena implements transport.ArenaSender: Send copies the payload into
// pooled datagram buffers, so the arena goes back to its pool at once.
func (n *Node) SendArena(to types.ProcessID, kind string, payload []byte, arena *wire.Arena) error {
	err := n.Send(to, kind, payload)
	arena.Release()
	return err
}

// sendOne encodes one datagram and hands it to the sender goroutine.
func (n *Node) sendOne(to types.ProcessID, kind string, payload []byte) error {
	msgs := 1
	if kind == wire.BatchKind && wire.IsBatch(payload) {
		if c, err := wire.BatchCount(payload); err == nil {
			msgs = c
		}
	}
	addr, err := n.addrOf(to)
	if err != nil {
		// Unresolvable peer: the message is lost in transit. Not an error
		// for the sender in the asynchronous model.
		n.CountSendDrop(msgs)
		return nil
	}
	p := packetPool.Get().(*packet)
	p.buf = appendPacket(p.buf[:0], n.seq.Add(1), n.ID(), kind, payload)
	p.addr = addr
	p.msgs = msgs
	select {
	case n.out <- p:
	default:
		n.CountSendDrop(msgs)
		putPacket(p)
	}
	return nil
}

// sendChunked splits a batch envelope that cannot fit one datagram into
// several smaller envelopes, each sent as its own datagram. Coalescers bound
// their runs well below a datagram in practice; this path keeps correctness
// when they do not. Entries too large even alone are dropped and counted.
func (n *Node) sendChunked(to types.ProcessID, envelope []byte) error {
	chunk := wire.NewBatch(0)
	flush := func() error {
		if chunk.Count() == 0 {
			return nil
		}
		err := n.sendOne(to, wire.BatchKind, chunk.Bytes())
		// sendOne copied the bytes into a pooled datagram buffer, so the
		// chunk buffer is safely reusable (no receiver ever aliases it).
		chunk.Reset()
		return err
	}
	_ = wire.ForEachInBatch(envelope, func(sub []byte) error {
		if len(sub)+8 > maxPayloadSize {
			n.CountSendDrop(1)
			return nil
		}
		if chunk.Count() > 0 && chunk.Size()+4+len(sub) > maxPayloadSize {
			_ = flush()
		}
		chunk.Append(sub)
		return nil
	})
	return flush()
}

// addrOf resolves and caches a destination's UDP address.
func (n *Node) addrOf(to types.ProcessID) (*net.UDPAddr, error) {
	n.mu.Lock()
	a, ok := n.peers[to]
	n.mu.Unlock()
	if ok {
		return a, nil
	}
	addr, err := n.AddrOf(to)
	if err != nil {
		return nil, err
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.peers[to] = ua
	n.mu.Unlock()
	return ua, nil
}

// Close implements transport.Node.
func (n *Node) Close() error {
	if !n.Shut() {
		return nil
	}
	close(n.done)      // stops the sender goroutine
	_ = n.conn.Close() // unblocks the read loop
	n.wg.Wait()
	// Count datagrams the sender never got to as send drops; they were
	// accepted into the queue but can no longer leave.
	for {
		select {
		case p := <-n.out:
			n.CountSendDrop(p.msgs)
			putPacket(p)
		default:
			n.Queue.Close()
			return nil
		}
	}
}

// sendLoop drains the outbound queue, shipping up to sendBatchSize datagrams
// per writeBatch call (one sendmmsg syscall on Linux). The queue decouples
// senders from syscalls the way tcpnet's per-peer flusher does, except
// batching is across destinations: sendmmsg carries a per-datagram
// destination address, so one syscall fans a quorum broadcast out to every
// server.
func (n *Node) sendLoop() {
	defer n.wg.Done()
	batch := make([]*packet, 0, sendBatchSize)
	for {
		select {
		case <-n.done:
			return
		case p := <-n.out:
			batch = append(batch[:0], p)
		fill:
			for len(batch) < sendBatchSize {
				select {
				case q := <-n.out:
					batch = append(batch, q)
				default:
					break fill
				}
			}
			n.writeBatch(batch)
			for _, q := range batch {
				putPacket(q)
			}
		}
	}
}

// writeBatchPortable ships each datagram with its own write syscall: the
// semantics-preserving fallback for platforms (or kernels) without sendmmsg.
func (n *Node) writeBatchPortable(pkts []*packet) {
	for _, p := range pkts {
		if _, err := n.conn.WriteToUDP(p.buf, p.addr); err != nil {
			n.CountSendDrop(p.msgs)
		}
	}
}

// readLoopPortable reads one datagram per syscall: the fallback receive path.
func (n *Node) readLoopPortable() {
	buf := make([]byte, maxDatagramSize)
	for {
		m, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		n.handleDatagram(buf[:m])
	}
}

// handleDatagram validates, dedups and delivers one inbound datagram. The
// frame body is copied once into a right-sized pooled refcounted arena so
// every delivered view — including each message of a batch envelope — aliases
// recycled memory rather than a fresh per-datagram allocation (wire's
// ownership rule 4), while the fixed-size read buffer returns to the
// recvmmsg ring immediately. Right-sizing matters here: server retention
// points pin a delivered message's arena for as long as the adopted value
// lives, and pinning a 60 KiB read buffer per register would defeat the pool.
func (n *Node) handleDatagram(pkt []byte) {
	n.CountFrame()
	seq, from, kind, payload, err := parsePacket(pkt)
	if err != nil {
		// Malformed datagrams (hostile or truncated) vanish silently, like
		// any other undecodable traffic in the asynchronous model.
		return
	}
	if n.filter != nil && !n.filter(from) {
		return
	}
	w := n.dedup[from]
	if w == nil {
		w = &dedupWindow{}
		n.dedup[from] = w
	}
	if w.observe(seq) {
		n.CountDedupDrop()
		return
	}

	body := pkt[8:]
	arena := wire.GetArena(len(body))
	abody := arena.Bytes()
	copy(abody, body)
	n.Deliver(from, kind, abody[len(body)-len(payload):], arena)
}

// dedupWindow is one sender's at-most-once state: the highest sequence seen
// and a bitmap of the 64 sequences just below it (bit i marks hi-1-i). A
// datagram above the window advances it; one inside the window is accepted
// exactly once; one below the window is treated as a replay and dropped —
// with sequences seeded from the wall clock, anything 64 sequences stale is
// either a duplicate or a previous incarnation's traffic.
type dedupWindow struct {
	seen bool
	hi   uint64
	bits uint64
}

// observe records a sequence number, reporting true when the datagram must be
// dropped as a duplicate or stale replay.
func (w *dedupWindow) observe(s uint64) bool {
	if !w.seen {
		w.seen, w.hi = true, s
		return false
	}
	switch {
	case s > w.hi:
		d := s - w.hi
		if d >= 64 {
			w.bits = 0
		} else {
			// The old highest moves to distance d inside the window.
			w.bits = w.bits<<d | 1<<(d-1)
		}
		w.hi = s
		return false
	case s == w.hi:
		return true
	default:
		d := w.hi - s
		if d > 64 {
			return true
		}
		mask := uint64(1) << (d - 1)
		if w.bits&mask != 0 {
			return true
		}
		w.bits |= mask
		return false
	}
}

// appendPacket encodes one datagram: the sequence number followed by the
// framed body — no length prefix, the datagram boundary is the frame
// boundary.
func appendPacket(buf []byte, seq uint64, from types.ProcessID, kind string, payload []byte) []byte {
	return framed.AppendBody(binary.BigEndian.AppendUint64(buf, seq), from, kind, payload)
}

// parsePacket decodes one datagram; the returned payload ALIASES pkt.
func parsePacket(pkt []byte) (seq uint64, from types.ProcessID, kind string, payload []byte, err error) {
	if len(pkt) < 8 {
		return 0, types.ProcessID{}, "", nil, fmt.Errorf("udpnet: datagram of %d bytes has no sequence number", len(pkt))
	}
	from, kind, payload, err = framed.ParseBody(pkt[8:])
	return binary.BigEndian.Uint64(pkt), from, kind, payload, err
}

// LocalCluster binds one UDP node per identity, all on loopback with
// ephemeral ports, and returns them along with the shared address book.
func LocalCluster(ids []types.ProcessID) (map[types.ProcessID]*Node, transport.AddressBook, error) {
	return framed.LocalCluster(ids, bind, func(cfg framed.Config, conn *net.UDPConn) *Node {
		return newNode(cfg, conn, nil)
	})
}
