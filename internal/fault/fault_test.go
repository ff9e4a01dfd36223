package fault

import (
	"testing"
	"time"

	"fastread/internal/sig"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// probe sends a request to the byzantine server and returns its reply (nil
// on timeout).
func probe(t *testing.T, net *transport.InMemNetwork, client transport.Node, server types.ProcessID, req *wire.Message) *wire.Message {
	t.Helper()
	if err := client.Send(server, req.Kind(), wire.MustEncode(req)); err != nil {
		t.Fatal(err)
	}
	select {
	case m, ok := <-client.Inbox():
		if !ok {
			return nil
		}
		decoded, err := wire.Decode(m.Payload)
		if err != nil {
			t.Fatalf("malicious server sent undecodable reply: %v", err)
		}
		return decoded
	case <-time.After(300 * time.Millisecond):
		return nil
	}
}

func setup(t *testing.T, behavior Behavior, victim types.ProcessID) (*transport.InMemNetwork, transport.Node, *ByzantineServer) {
	t.Helper()
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	srvNode, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	keys := sig.MustKeyPair()
	srv, err := NewByzantineServer(ByzantineConfig{
		ID:         types.Server(1),
		Behavior:   behavior,
		Readers:    2,
		Victim:     victim,
		ForgerKeys: &keys,
	}, srvNode)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)

	client, err := net.Join(types.Reader(1))
	if err != nil {
		t.Fatal(err)
	}
	return net, client, srv
}

func TestForgeTimestampBehavior(t *testing.T) {
	net, client, _ := setup(t, BehaviorForgeTimestamp, types.ProcessID{})
	_ = net
	reply := probe(t, nil, client, types.Server(1), &wire.Message{Op: wire.OpRead, RCounter: 1})
	if reply == nil {
		t.Fatal("no reply")
	}
	if reply.TS < 1<<30 {
		t.Errorf("forged timestamp too small: %d", reply.TS)
	}
	if len(reply.WriterSig) == 0 {
		t.Error("forger should attach a (bogus) signature")
	}
	// The forgery must NOT verify under a genuine writer key.
	genuine := sig.MustKeyPair()
	if err := genuine.Verifier.VerifyMessage(reply); err == nil {
		t.Error("forged signature verified under the real writer key")
	}
}

func TestStaleReplayBehavior(t *testing.T) {
	_, client, _ := setup(t, BehaviorStaleReplay, types.ProcessID{})
	// Even after being told about ts=5, the server keeps claiming ts=0.
	reply := probe(t, nil, client, types.Server(1), &wire.Message{Op: wire.OpRead, TS: 5, RCounter: 1})
	if reply == nil {
		t.Fatal("no reply")
	}
	if reply.TS != 0 {
		t.Errorf("stale server replied ts=%d, want 0", reply.TS)
	}
}

func TestMemoryLossBehaviorTargetsOnlyVictim(t *testing.T) {
	net, victim, _ := setup(t, BehaviorMemoryLoss, types.Reader(1))
	other, err := net.Join(types.Reader(2))
	if err != nil {
		t.Fatal(err)
	}

	// Teach the server ts=3 via the non-victim reader.
	reply := probe(t, nil, other, types.Server(1), &wire.Message{Op: wire.OpRead, TS: 3, Cur: types.Value("v3"), RCounter: 1})
	if reply == nil || reply.TS != 3 {
		t.Fatalf("honest-path reply = %+v, want ts=3", reply)
	}
	// The victim is told the server has seen nothing.
	reply = probe(t, nil, victim, types.Server(1), &wire.Message{Op: wire.OpRead, RCounter: 1})
	if reply == nil {
		t.Fatal("no reply to victim")
	}
	if reply.TS != 0 {
		t.Errorf("victim got ts=%d, want 0 (memory loss)", reply.TS)
	}
	// The non-victim still sees the true state.
	reply = probe(t, nil, other, types.Server(1), &wire.Message{Op: wire.OpRead, RCounter: 2})
	if reply == nil || reply.TS != 3 {
		t.Errorf("non-victim got %+v, want ts=3", reply)
	}
}

func TestInflateSeenBehavior(t *testing.T) {
	_, client, _ := setup(t, BehaviorInflateSeen, types.ProcessID{})
	reply := probe(t, nil, client, types.Server(1), &wire.Message{Op: wire.OpRead, RCounter: 1})
	if reply == nil {
		t.Fatal("no reply")
	}
	seen := types.NewProcessSet(reply.Seen...)
	if !seen.Has(types.Writer()) || !seen.Has(types.Reader(1)) || !seen.Has(types.Reader(2)) {
		t.Errorf("inflated seen set = %v, want all clients", seen)
	}
}

func TestMuteBehaviorNeverReplies(t *testing.T) {
	_, client, _ := setup(t, BehaviorMute, types.ProcessID{})
	if reply := probe(t, nil, client, types.Server(1), &wire.Message{Op: wire.OpRead, RCounter: 1}); reply != nil {
		t.Errorf("mute server replied: %+v", reply)
	}
}

func TestByzantineServerValidation(t *testing.T) {
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	node, err := net.Join(types.Server(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewByzantineServer(ByzantineConfig{ID: types.Reader(1), Behavior: BehaviorMute}, node); err == nil {
		t.Error("reader identity accepted")
	}
	if _, err := NewByzantineServer(ByzantineConfig{ID: types.Server(1), Behavior: Behavior(99)}, node); err == nil {
		t.Error("unknown behaviour accepted")
	}
	if _, err := NewByzantineServer(ByzantineConfig{ID: types.Server(1), Behavior: BehaviorMute}, nil); err == nil {
		t.Error("nil node accepted")
	}
}

func TestBehaviorString(t *testing.T) {
	for b := BehaviorForgeTimestamp; b <= BehaviorMute; b++ {
		if b.String() == "unknown" {
			t.Errorf("behaviour %d has no name", b)
		}
	}
	if Behavior(0).String() != "unknown" {
		t.Error("invalid behaviour should be unknown")
	}
}

// TestHonestHalfIsPerKey pins that the behaviours that are honest in part
// keep one state per register: a write to k1 must not show up — timestamp,
// value or signature — in what a non-victim reader of k2 is told.
func TestHonestHalfIsPerKey(t *testing.T) {
	for _, b := range []Behavior{BehaviorMemoryLoss, BehaviorInflateSeen} {
		t.Run(b.String(), func(t *testing.T) {
			net, _, _ := setup(t, b, types.Reader(1))
			writer, err := net.Join(types.Writer())
			if err != nil {
				t.Fatal(err)
			}
			other, err := net.Join(types.Reader(2))
			if err != nil {
				t.Fatal(err)
			}
			write := &wire.Message{Op: wire.OpWrite, Key: "k1", TS: 5, Cur: types.Value("v5"), Prev: types.Value("v4"), WriterSig: []byte("sig-k1")}
			if reply := probe(t, nil, writer, types.Server(1), write); reply == nil || reply.Key != "k1" || reply.TS != 5 {
				t.Fatalf("write ack = %+v, want k1 at ts=5", reply)
			}
			reply := probe(t, nil, other, types.Server(1), &wire.Message{Op: wire.OpRead, Key: "k2", RCounter: 1})
			if reply == nil {
				t.Fatal("no reply to k2's reader")
			}
			if reply.Key != "k2" || reply.TS != 0 || !reply.Cur.IsBottom() || len(reply.WriterSig) != 0 {
				t.Errorf("k2's reader was told key=%q ts=%d cur=%q sig=%q, want k2's initial state", reply.Key, reply.TS, reply.Cur, reply.WriterSig)
			}
		})
	}
}
