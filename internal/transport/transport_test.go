package transport

import (
	"testing"

	"fastread/internal/types"
)

func TestMessageString(t *testing.T) {
	tests := []struct {
		name string
		msg  Message
		want string
	}{
		{"write request", Message{From: types.Writer(), To: types.Server(1), Kind: "write", Payload: make([]byte, 12)}, "w→s1 write (12B)"},
		{"read ack without payload", Message{From: types.Server(2), To: types.Reader(3), Kind: "read-ack"}, "s2→r3 read-ack (0B)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.msg.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}
