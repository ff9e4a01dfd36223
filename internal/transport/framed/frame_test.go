package framed

import (
	"bytes"
	"testing"

	"fastread/internal/types"
	"fastread/internal/wire"
)

func TestBodyRoundTrip(t *testing.T) {
	body := AppendBody(nil, types.Reader(7), "readack", []byte{1, 2, 3})
	from, kind, payload, err := ParseBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if from != types.Reader(7) || kind != "readack" || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Errorf("round trip mismatch: %v %q %v", from, kind, payload)
	}
	if hdr := AppendHeader(nil, types.Reader(7), "readack", 3); !bytes.Equal(hdr, body[:len(body)-3]) || len(hdr) != HeaderOverhead+len("readack") {
		t.Errorf("header %x is not the body's prefix %x", hdr, body)
	}
}

func TestParseBodyRejectsGarbage(t *testing.T) {
	good := AppendBody(nil, types.Writer(), "k", []byte("data"))
	badRole := append([]byte(nil), good...)
	badRole[0] = 99
	longKind := append([]byte(nil), good...)
	longKind[5], longKind[6] = 0xFF, 0xFF
	for what, body := range map[string][]byte{
		"empty":                       nil,
		"shorter than any header":     good[:HeaderOverhead-1],
		"payload shorter than stated": good[:len(good)-2],
		"payload longer than stated":  append(append([]byte(nil), good...), 0),
		"invalid sender role":         badRole,
		"kind runs past the body":     longKind,
	} {
		if _, _, payload, err := ParseBody(body); err == nil || payload != nil {
			t.Errorf("%s: err=%v payload=%v, want an error and no view", what, err, payload)
		}
	}
}

// FuzzFrameBody holds the one frame-body parser both carriers run to its
// contract on arbitrary input: never panic, accept only valid senders, return
// a payload that is a view of the body's tail, and re-encode to the exact
// bytes parsed (the layout has no redundancy). The carriers' own fuzz targets
// (tcpnet.FuzzReadFrame, udpnet.FuzzParsePacket) cover only their prefix.
func FuzzFrameBody(f *testing.F) {
	// Every frame shape either carrier's corpus seeds...
	for _, seed := range []struct {
		from    types.ProcessID
		kind    string
		payload []byte
	}{
		{types.Writer(), "write", []byte("payload")},
		{types.Reader(3), "readack", nil},
		{types.Server(12), "gossip", bytes.Repeat([]byte{0xAB}, 300)},
		{types.Reader(1), "", []byte{}},
		{types.Server(1), "kind", []byte("payload")},
		{types.ProcessID{Role: types.RoleWriter}, wire.BatchKind, nil},
	} {
		f.Add(AppendBody(nil, seed.from, seed.kind, seed.payload))
	}
	// ...and the hostile ones: nothing, a lone role byte, all ones.
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, body []byte) {
		from, kind, payload, err := ParseBody(body)
		if err != nil {
			if payload != nil {
				t.Fatalf("error %v still handed out a view", err)
			}
			return
		}
		if !from.Valid() {
			t.Fatalf("parser accepted invalid sender %v", from)
		}
		if len(payload) > 0 && &payload[len(payload)-1] != &body[len(body)-1] {
			t.Fatal("payload is not a view of the body's tail")
		}
		if re := AppendBody(nil, from, kind, payload); !bytes.Equal(re, body) {
			t.Fatalf("re-encode mismatch:\n in: %x\nout: %x", body, re)
		}
	})
}
