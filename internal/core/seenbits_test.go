package core

import (
	"testing"
	"time"

	"fastread/internal/fault"
	"fastread/internal/protoutil"
	"fastread/internal/quorum"
	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// TestStandInSeenBitsPastRAreIgnored: f stand-ins (fault.BehaviorInflateSeen,
// servers s1..sf, so they are in every quorum) answer with all 32 bits of
// the seen mask set, clients beyond R included. The reader's decision over
// those acknowledgements must be the one EvaluatePredicate's filter reaches
// after dropping the fictitious processes — here the readers past R and
// every server id, spelled out in the stand-ins' process sets.
func TestStandInSeenBitsPastRAreIgnored(t *testing.T) {
	rows := []struct {
		name    string
		cfg     quorum.Config
		writeTo int // the write of ts 1 reaches s1..s_writeTo
		readers int // r2..r_readers read from s2..s_readTo before r1's probe
		readTo  int
	}{
		{"complete write", quorum.Config{Servers: 4, Faulty: 1, Readers: 1}, 4, 0, 0},
		{"write at the stand-in and one honest server", quorum.Config{Servers: 4, Faulty: 1, Readers: 1}, 2, 0, 0},
		{"write at the stand-in only", quorum.Config{Servers: 5, Faulty: 1, Readers: 2}, 1, 0, 0},
		{"arbitrary failures", quorum.Config{Servers: 6, Faulty: 1, Malicious: 1, Readers: 1}, 3, 0, 0},
		{"divergent seen sets", quorum.Config{Servers: 11, Faulty: 1, Readers: 8}, 6, 3, 4},
		{"wide quorum after R reads", quorum.Config{Servers: 19, Faulty: 1, Readers: 16}, 19, 16, 19},
		{"two stand-ins", quorum.Config{Servers: 10, Faulty: 2, Readers: 2}, 5, 2, 7},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			acks := standInAcks(t, cfg, row.writeTo, row.readers, row.readTo)

			legitOnly := types.Clients(cfg.Readers)
			seenAcks := make([]SeenAck, 0, len(acks))
			maxTS, _, _ := protoutil.MaxTimestamp(acks)
			for _, a := range acks {
				standIn := a.From.Index <= cfg.Faulty
				if standIn && a.Msg.SeenMask != ^types.ClientMask(0) {
					t.Fatalf("stand-in %v answered seen set %v, want every bit", a.From, a.Msg.SeenMask)
				}
				if !standIn && a.Msg.SeenMask&^legitOnly != 0 {
					t.Fatalf("honest %v answered seen set %v past R=%d", a.From, a.Msg.SeenMask, cfg.Readers)
				}
				if a.Msg.TS != maxTS {
					continue
				}
				seen := types.NewProcessSet(a.Msg.SeenMask.Members()...)
				if standIn {
					for i := 1; i <= cfg.Servers; i++ {
						seen.Add(types.Server(i))
					}
				}
				seenAcks = append(seenAcks, SeenAck{Server: a.From, Seen: seen})
			}
			want, err := EvaluatePredicate(cfg, seenAcks)
			if err != nil {
				t.Fatal(err)
			}

			net := transport.NewInMemNetwork()
			t.Cleanup(func() { _ = net.Close() })
			node, err := net.Join(types.Reader(1))
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(ReaderConfig{Quorum: cfg}, node)
			if err != nil {
				t.Fatal(err)
			}
			call := &protoutil.Call[ReadResult]{}
			if _, err := r.finish(call, acks); err != nil {
				t.Fatalf("reader: %v", err)
			}
			got := call.Result
			if got.PredicateHeld != want.Holds || got.PredicateLevel != want.Level || got.MaxTimestamp != maxTS {
				t.Errorf("reader decided held=%v level=%d at ts %d; the filter decides held=%v level=%d at ts %d",
					got.PredicateHeld, got.PredicateLevel, got.MaxTimestamp, want.Holds, want.Level, maxTS)
			}
		})
	}
}

// standInAcks deploys cfg with s1..sf as seen-set-inflating stand-ins (f =
// cfg.Faulty) and honest servers elsewhere, writes ts 1 to s1..s_writeTo,
// lets readers r2..r_readers read from s2..s_readTo, then sends r1's read
// to every server and returns the first S − t acknowledgements by server
// index: every stand-in is among them.
func standInAcks(t *testing.T, cfg quorum.Config, writeTo, readers, readTo int) []protoutil.Ack {
	t.Helper()
	net := transport.NewInMemNetwork()
	t.Cleanup(func() { _ = net.Close() })
	join := func(id types.ProcessID) transport.Node {
		n, err := net.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for i := 1; i <= cfg.Servers; i++ {
		id, node := types.Server(i), join(types.Server(i))
		if i <= cfg.Faulty {
			s, err := fault.NewByzantineServer(fault.ByzantineConfig{ID: id, Behavior: fault.BehaviorInflateSeen}, node)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			t.Cleanup(s.Stop)
			continue
		}
		s, err := NewServer(ServerConfig{ID: id, Readers: cfg.Readers}, node)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		t.Cleanup(s.Stop)
	}
	send := func(from transport.Node, upTo int, m *wire.Message) {
		for i := 1; i <= upTo; i++ {
			if err := from.Send(types.Server(i), m.Kind(), wire.MustEncode(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := types.Value("v1")
	send(join(types.Writer()), writeTo, &wire.Message{Op: wire.OpWrite, TS: 1, Cur: v})
	for r := 2; r <= readers; r++ {
		from := join(types.Reader(r))
		req := &wire.Message{Op: wire.OpRead, RCounter: 1}
		for i := 2; i <= readTo; i++ {
			if err := from.Send(types.Server(i), req.Kind(), wire.MustEncode(req)); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe := join(types.Reader(1))
	send(probe, cfg.Servers, &wire.Message{Op: wire.OpRead, RCounter: 1})

	byServer := make([]*wire.Message, cfg.Servers+1)
	for got := 0; got < cfg.Servers; {
		select {
		case m := <-probe.Inbox():
			transport.Expand(m, func(one transport.Message) {
				ack, err := wire.Decode(one.Payload)
				if err != nil {
					t.Fatal(err)
				}
				byServer[one.From.Index] = ack
				got++
			})
			m.ReleaseArena()
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d servers answered r1's read", got, cfg.Servers)
		}
	}
	acks := make([]protoutil.Ack, 0, cfg.AckQuorum())
	for i := 1; len(acks) < cfg.AckQuorum(); i++ {
		acks = append(acks, protoutil.Ack{From: types.Server(i), Msg: byServer[i]})
	}
	return acks
}
