//go:build linux && (amd64 || arm64)

// Batched datagram syscalls: sendmmsg(2) on the outbound path and
// recvmmsg(2) on the inbound path, one syscall per up-to-32 datagrams. The
// stdlib syscall package provides the Msghdr/Iovec layouts for linux/amd64
// and linux/arm64 (both with 64-bit Iovlen), so no external x/net or x/sys
// dependency is needed; the mmsg syscall numbers postdate the stdlib's frozen
// sysnum tables and are declared per-arch in mmsg_linux_*.go, and mmsghdr is
// declared here to match the kernel's struct (msghdr plus the per-message
// received length, padded to 8-byte alignment).
//
// Both loops run through the RawConn Read/Write callbacks, so blocking is
// handled by the runtime netpoller exactly as for ordinary reads: the
// syscalls are issued non-blocking and the goroutine parks until the socket
// is ready. A kernel that rejects the syscalls (ENOSYS under some seccomp
// profiles or emulators) flips the node to the portable one-datagram loops
// permanently.

package udpnet

import (
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// batchState carries the raw connection handle and the sender goroutine's
// scratch arrays (headers, iovecs, sockaddr storage — rebuilt per sendmmsg
// call, never escaping it).
type batchState struct {
	rc       syscall.RawConn
	fallback atomic.Bool

	hdrs [sendBatchSize]mmsghdr
	iovs [sendBatchSize]syscall.Iovec
	sa4s [sendBatchSize]syscall.RawSockaddrInet4
	sa6s [sendBatchSize]syscall.RawSockaddrInet6
}

// newBatchState prepares the batch-syscall state for a bound socket, or
// returns nil to select the portable paths.
func newBatchState(conn *net.UDPConn) *batchState {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	return &batchState{rc: rc}
}

// rawSockaddr fills the scratch sockaddr for one destination and returns its
// pointer and size for the msghdr name fields.
func rawSockaddr(addr *net.UDPAddr, sa4 *syscall.RawSockaddrInet4, sa6 *syscall.RawSockaddrInet6) (unsafe.Pointer, uint32) {
	port := [2]byte{byte(addr.Port >> 8), byte(addr.Port)}
	if ip4 := addr.IP.To4(); ip4 != nil {
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		*(*[2]byte)(unsafe.Pointer(&sa4.Port)) = port
		copy(sa4.Addr[:], ip4)
		return unsafe.Pointer(sa4), syscall.SizeofSockaddrInet4
	}
	*sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	*(*[2]byte)(unsafe.Pointer(&sa6.Port)) = port
	copy(sa6.Addr[:], addr.IP.To16())
	if zone := addr.Zone; zone != "" {
		if ifi, err := net.InterfaceByName(zone); err == nil {
			sa6.Scope_id = uint32(ifi.Index)
		}
	}
	return unsafe.Pointer(sa6), syscall.SizeofSockaddrInet6
}

// writeBatch ships the packets with as few sendmmsg calls as possible. A
// per-call failure drops the first unsent datagram (counted) and carries on,
// so one bad destination cannot wedge the queue; ENOSYS falls back to the
// portable loop for these packets and all future ones.
func (n *Node) writeBatch(pkts []*packet) {
	bs := n.bs
	if bs == nil || bs.fallback.Load() {
		n.writeBatchPortable(pkts)
		return
	}
	i := 0
	for i < len(pkts) {
		cnt := 0
		for j := i; j < len(pkts) && cnt < sendBatchSize; j++ {
			p := pkts[j]
			ptr, size := rawSockaddr(p.addr, &bs.sa4s[cnt], &bs.sa6s[cnt])
			bs.iovs[cnt].Base = &p.buf[0]
			bs.iovs[cnt].SetLen(len(p.buf))
			h := &bs.hdrs[cnt]
			h.hdr = syscall.Msghdr{Name: (*byte)(ptr), Namelen: size, Iov: &bs.iovs[cnt], Iovlen: 1}
			h.len = 0
			cnt++
		}
		var sent int
		var serr syscall.Errno
		err := bs.rc.Write(func(fd uintptr) bool {
			r1, _, e := syscall.Syscall6(sysSendmmsg,
				fd, uintptr(unsafe.Pointer(&bs.hdrs[0])), uintptr(cnt), 0, 0, 0)
			if e == syscall.EAGAIN {
				return false // park until writable
			}
			serr, sent = e, int(r1)
			return true
		})
		runtime.KeepAlive(pkts)
		if err == nil && serr == 0 && sent > 0 {
			i += sent
			continue
		}
		if serr == syscall.ENOSYS {
			bs.fallback.Store(true)
			n.writeBatchPortable(pkts[i:])
			return
		}
		// The head datagram could not leave (bad address, transient socket
		// error, closed connection): count it lost and try the rest.
		n.CountSendDrop(pkts[i].msgs)
		i++
		if err != nil {
			// The connection itself is gone; everything left is lost too.
			for _, p := range pkts[i:] {
				n.CountSendDrop(p.msgs)
			}
			return
		}
	}
}

// readLoop drains the socket with recvmmsg into a fixed ring of read buffers,
// handing each datagram to handleDatagram (which copies the frame into a
// right-sized arena, so the ring buffers never escape this goroutine).
func (n *Node) readLoop() {
	defer n.wg.Done()
	bs := n.bs
	if bs == nil {
		n.readLoopPortable()
		return
	}
	bufs := make([][]byte, recvBatchSize)
	iovs := make([]syscall.Iovec, recvBatchSize)
	hdrs := make([]mmsghdr, recvBatchSize)
	for i := range bufs {
		bufs[i] = make([]byte, maxDatagramSize)
		iovs[i].Base = &bufs[i][0]
		iovs[i].SetLen(maxDatagramSize)
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
	}
	for {
		var got int
		var serr syscall.Errno
		err := bs.rc.Read(func(fd uintptr) bool {
			r1, _, e := syscall.Syscall6(sysRecvmmsg,
				fd, uintptr(unsafe.Pointer(&hdrs[0])), recvBatchSize, syscall.MSG_DONTWAIT, 0, 0)
			if e == syscall.EAGAIN {
				return false // park until readable
			}
			serr, got = e, int(r1)
			return true
		})
		runtime.KeepAlive(bufs)
		if err != nil {
			return // socket closed
		}
		if serr != 0 {
			if serr == syscall.ENOSYS {
				bs.fallback.Store(true)
				n.readLoopPortable()
				return
			}
			// Transient per-datagram errors (e.g. a queued ICMP error on
			// some configurations) do not invalidate the socket.
			continue
		}
		for i := 0; i < got; i++ {
			n.handleDatagram(bufs[i][:hdrs[i].len])
		}
	}
}
