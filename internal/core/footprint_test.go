package core

import (
	"fmt"
	"runtime"
	"testing"

	"fastread/internal/transport"
	"fastread/internal/types"
	"fastread/internal/wire"
)

// discard is a run's sender that drops every acknowledgement.
type discard struct{}

func (discard) Send(types.ProcessID, string, []byte) error { return nil }

// TestRegisterFootprint bounds what one written and read register costs a
// server: its value, its seen mask and R+1 counters, and its slot in the
// shell's state map. With the seen set as a list beside a map of counters
// it cost 413 bytes at R=1 and 1 380 at R=16 on amd64; as a mask beside a
// slice, 205 and 348.
func TestRegisterFootprint(t *testing.T) {
	const keys = 20_000
	for _, c := range []struct{ readers, limit int }{{1, 300}, {16, 450}} {
		net := transport.NewInMemNetwork()
		node, err := net.Join(types.Server(1))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(ServerConfig{ID: types.Server(1), Readers: c.readers}, node)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, keys)
		for i := range names {
			names[i] = fmt.Sprintf("k%06d", i)
		}
		heap := func() uint64 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return m.HeapAlloc
		}
		before := heap()
		for _, k := range names {
			s.handle(transport.Message{From: types.Writer()}, &wire.Message{Op: wire.OpWrite, Key: k, TS: 1, Cur: types.Value("v")}, discard{})
			for r := 1; r <= c.readers; r++ {
				s.handle(transport.Message{From: types.Reader(r)}, &wire.Message{Op: wire.OpRead, Key: k, TS: 1, Cur: types.Value("v"), RCounter: 1}, discard{})
			}
		}
		perKey := float64(heap()-before) / keys
		if st := s.StateOf(names[keys-1]); st.Seen != types.Clients(c.readers) {
			t.Fatalf("R=%d: seen set %v after every client, want %v", c.readers, st.Seen, types.Clients(c.readers))
		}
		t.Logf("R=%d: %.0f heap bytes per register", c.readers, perKey)
		if perKey > float64(c.limit) {
			t.Errorf("R=%d: a register costs %.0f heap bytes, want at most %d", c.readers, perKey, c.limit)
		}
		runtime.KeepAlive(names)
		runtime.KeepAlive(s)
		_ = net.Close()
	}
}
