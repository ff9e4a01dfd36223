package main

import (
	"strings"
	"testing"

	"fastread/internal/transport"
	"fastread/internal/types"
)

// TestListenNodeTransports binds one node per transport on an ephemeral
// loopback port and checks the stats accessor works for each.
func TestListenNodeTransports(t *testing.T) {
	id := types.Server(1)
	book := transport.AddressBook{id: "127.0.0.1:0"}
	for _, kind := range []string{"tcp", "udp"} {
		node, addr, stats, err := listenNode(kind, id, "", book)
		if err != nil {
			t.Fatalf("listenNode(%q): %v", kind, err)
		}
		if a := addr(); !strings.HasPrefix(a, "127.0.0.1:") || strings.HasSuffix(a, ":0") {
			t.Errorf("listenNode(%q) bound addr = %q, want ephemeral loopback port", kind, a)
		}
		if c := stats(); c != (nodeCounters{}) {
			t.Errorf("listenNode(%q) fresh counters = %+v, want zeros", kind, c)
		}
		if err := node.Close(); err != nil {
			t.Errorf("close %q node: %v", kind, err)
		}
	}
}

// TestListenNodeUnknown rejects transports outside tcp|udp.
func TestListenNodeUnknown(t *testing.T) {
	if _, _, _, err := listenNode("sctp", types.Server(1), "", nil); err == nil {
		t.Fatal("listenNode(sctp) succeeded, want error")
	}
}
