// Package socknet is the one place a socket backend is chosen by name. The
// public fastread transports, cmd/regserver and cmd/regclient all bind their
// sockets through Listen, so adding or renaming a carrier of the framed core
// is a change to this switch and nothing else.
package socknet

import (
	"fmt"

	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/transport/tcpnet"
	"fastread/internal/transport/udpnet"
	"fastread/internal/types"
)

// Node is a socket-attached process on either carrier: a transport.Node that
// also knows where it is bound, what it delivered and dropped, and how deep
// its inbound queue has been.
type Node interface {
	transport.Node
	// Addr returns the address the node is bound to (useful with ":0").
	Addr() string
	// Stats returns a snapshot of the node's counters; it stays readable
	// after Close.
	Stats() transport.Stats
}

// Listen binds one node on the named backend, "tcp" or "udp". filter is the
// datagram carrier's packet-loss injection hook (see udpnet.Listen); a stream
// has no datagrams to lose and ignores it.
func Listen(backend string, cfg framed.Config, filter func(from types.ProcessID) bool) (Node, error) {
	// Each arm returns through a checked error so a failed bind yields a nil
	// interface, not a typed nil pointer inside one.
	switch backend {
	case "tcp":
		n, err := tcpnet.Listen(cfg)
		if err != nil {
			return nil, err
		}
		return n, nil
	case "udp":
		n, err := udpnet.Listen(cfg, filter)
		if err != nil {
			return nil, err
		}
		return n, nil
	default:
		return nil, fmt.Errorf("unknown socket transport %q (want tcp or udp)", backend)
	}
}
