package main

import (
	"os"
	"path/filepath"
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
		if c := node.Stats(); c != (transport.Stats{}) {
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

// TestByzAliasIsUnknownFlag: -protocol fast-byz is the one spelling of the
// arbitrary-failure variant.
func TestByzAliasIsUnknownFlag(t *testing.T) {
	if err := run([]string{"-byz"}); err == nil || !strings.Contains(err.Error(), "not defined: -byz") {
		t.Errorf("run(-byz) = %v, want an unknown-flag error", err)
	}
}

// TestWorkerFlagsAreUnknown: a server has one worker and no worker knob, so a
// script still passing -workers or -queue-bound fails loudly instead of being
// silently ignored.
func TestWorkerFlagsAreUnknown(t *testing.T) {
	for _, args := range [][]string{{"-workers", "2"}, {"-queue-bound", "8"}} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "not defined: "+args[0]) {
			t.Errorf("run(%v) = %v, want an unknown-flag error", args, err)
		}
	}
}

// TestGroupShapeInheritsPerField repeats internal/topology's four rows
// against this binary's call of the shared resolver: whatever a topology
// group leaves zero falls back to the -S/-t/-b flags field by field, exactly
// as in cmd/regclient and the in-process Store. Every resolved shape here is
// beyond the fast protocol's bound at R=2, so run refuses it before binding a
// socket and the refusal spells the shape out.
func TestGroupShapeInheritsPerField(t *testing.T) {
	for _, tc := range []struct{ name, group, want string }{
		{"none", `{"name": "g"`, "S=4 t=1"},
		{"S only", `{"name": "g", "servers": 3`, "S=3 t=1"},
		{"t only", `{"name": "g", "faulty": 2`, "S=4 t=2"},
		{"all set", `{"name": "g", "servers": 5, "faulty": 2`, "S=5 t=2"},
	} {
		topo := filepath.Join(t.TempDir(), "topo.json")
		doc := `{"groups": [` + tc.group + `, "members": {"s1": "127.0.0.1:0"}}]}`
		if err := os.WriteFile(topo, []byte(doc), 0o600); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-id", "s1", "-groups", topo, "-group", "g", "-protocol", "fast", "-S", "4", "-t", "1", "-R", "2"})
		if err == nil || !strings.Contains(err.Error(), `group "g"`) || !strings.Contains(err.Error(), tc.want+" ") {
			t.Errorf("%s: run = %v, want a refusal of group \"g\" at %s", tc.name, err, tc.want)
		}
	}
}
