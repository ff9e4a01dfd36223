package main

import (
	"strings"
	"testing"

	"fastread/internal/transport"
	"fastread/internal/transport/framed"
	"fastread/internal/transport/socknet"
	"fastread/internal/types"
)

// TestListenNodeTransports binds a server's node the way run does, once per
// -transport value, on an ephemeral loopback port taken from the book.
func TestListenNodeTransports(t *testing.T) {
	id := types.Server(1)
	book := transport.AddressBook{id: "127.0.0.1:0"}
	for _, kind := range []string{"tcp", "udp"} {
		node, err := socknet.Listen(kind, framed.Config{Self: id, Book: book}, nil)
		if err != nil {
			t.Fatalf("Listen(%q): %v", kind, err)
		}
		if a := node.Addr(); !strings.HasPrefix(a, "127.0.0.1:") || strings.HasSuffix(a, ":0") {
			t.Errorf("Listen(%q) bound addr = %q, want ephemeral loopback port", kind, a)
		}
		if c := node.Stats(); c != (framed.Stats{}) {
			t.Errorf("Listen(%q) fresh counters = %+v, want zeros", kind, c)
		}
		if err := node.Close(); err != nil {
			t.Errorf("close %q node: %v", kind, err)
		}
	}
}

// TestListenNodeUnknown rejects -transport values outside tcp|udp with a nil
// node (not a typed nil inside the interface).
func TestListenNodeUnknown(t *testing.T) {
	if node, err := socknet.Listen("sctp", framed.Config{Self: types.Server(1)}, nil); err == nil || node != nil {
		t.Fatalf("Listen(sctp) = %v, %v; want nil and an error", node, err)
	}
}
