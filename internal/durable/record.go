package durable

import (
	"encoding/binary"
	"fmt"

	"fastread/internal/types"
)

// Record kinds. The durable layer frames and checksums records without
// interpreting them; the kind tells the owning protocol server how to replay
// one during recovery.
const (
	// KindDelta is one state mutation: the delta the server's Apply consumed
	// live — the request's timestamped value plus the client identity and
	// operation counter that carried it — which recovery hands to the same
	// Apply again. Segments hold deltas.
	KindDelta byte = 1
	// KindState is one register's complete durable state. Snapshots hold one
	// state record per instantiated register.
	KindState byte = 2
)

// CounterEntry is one client's operation counter inside a KindState record
// (the fast protocols' per-client stale-request guard).
type CounterEntry struct {
	// PID is the client's process id as types.ProcessID.ClientPID encodes it.
	PID int32
	// N is the highest operation counter the server has processed for it.
	N int64
}

// Record is the shared mutation/state vocabulary every protocol server logs
// and replays. A KindDelta record is exactly the delta the protocol's Apply
// consumed live, and recovery replays it through that same Apply. The durable
// layer assigns LSN and owns framing and checksums; which fields are
// meaningful is the protocol's business (abd uses Rank, the fast register
// uses Sig/From/RCounter/Seen/Counters, maxmin just Key/TS/Cur/Prev).
//
// Ownership: a Record handed to Hooks.Apply is valid only for the duration of
// the call, and its byte fields alias the replay buffer — the Apply that
// replays it retains nothing without cloning, exactly as it clones a live
// request that comes without an arena. A Record passed to Log.Stage (or
// Append) or emitted by Hooks.Dump is consumed (encoded) before the call
// returns, so callers may alias live state.
type Record struct {
	Kind byte
	// LSN is the record's log sequence number: assigned by Log.Append in file
	// order, echoed back on replay. A KindState record carries the LSN of the
	// last delta its register reflects, so replaying a delta with
	// LSN ≤ state.lsn is a no-op — that is what makes the snapshot-while-
	// appending overlap idempotent.
	LSN  int64
	Key  string
	TS   int64
	Rank int32
	Cur  []byte
	Prev []byte
	Sig  []byte
	// From and RCounter identify the client request that caused a delta.
	From     types.ProcessID
	RCounter int64
	// Seen and Counters carry the fast register's seen set and per-client
	// counters in KindState records.
	Seen     []types.ProcessID
	Counters []CounterEntry
}

// Value-field length sentinel: 0 encodes nil (the protocols distinguish the
// initial value ⊥ from an empty byte string), n+1 encodes n bytes.
func appendValue(dst []byte, v []byte) []byte {
	if v == nil {
		return binary.BigEndian.AppendUint32(dst, 0)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v))+1)
	return append(dst, v...)
}

func appendPID(dst []byte, p types.ProcessID) []byte {
	dst = append(dst, byte(p.Role))
	return binary.BigEndian.AppendUint32(dst, uint32(p.Index))
}

// appendRecord encodes r onto dst and returns the extended slice.
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, r.Kind)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.LSN))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.TS))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Rank))
	dst = appendValue(dst, r.Cur)
	dst = appendValue(dst, r.Prev)
	dst = appendValue(dst, r.Sig)
	dst = appendPID(dst, r.From)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.RCounter))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Seen)))
	for _, p := range r.Seen {
		dst = appendPID(dst, p)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Counters)))
	for _, c := range r.Counters {
		dst = binary.BigEndian.AppendUint32(dst, uint32(c.PID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(c.N))
	}
	return dst
}

// recordDecoder is a bounds-checked cursor over one record payload.
type recordDecoder struct {
	b []byte
}

func (d *recordDecoder) take(n int) ([]byte, bool) {
	if len(d.b) < n {
		return nil, false
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, true
}

func (d *recordDecoder) u8() (byte, bool) {
	b, ok := d.take(1)
	if !ok {
		return 0, false
	}
	return b[0], true
}

func (d *recordDecoder) u16() (uint16, bool) {
	b, ok := d.take(2)
	if !ok {
		return 0, false
	}
	return binary.BigEndian.Uint16(b), true
}

func (d *recordDecoder) u32() (uint32, bool) {
	b, ok := d.take(4)
	if !ok {
		return 0, false
	}
	return binary.BigEndian.Uint32(b), true
}

func (d *recordDecoder) u64() (uint64, bool) {
	b, ok := d.take(8)
	if !ok {
		return 0, false
	}
	return binary.BigEndian.Uint64(b), true
}

func (d *recordDecoder) value() ([]byte, bool) {
	n, ok := d.u32()
	if !ok {
		return nil, false
	}
	if n == 0 {
		return nil, true
	}
	return d.take(int(n) - 1)
}

func (d *recordDecoder) pid() (types.ProcessID, bool) {
	role, ok := d.u8()
	if !ok {
		return types.ProcessID{}, false
	}
	idx, ok := d.u32()
	if !ok {
		return types.ProcessID{}, false
	}
	p := types.ProcessID{Role: types.Role(role), Index: int(int32(idx))}
	if p == (types.ProcessID{}) {
		// The zero ProcessID is legal in records that carry no client
		// identity (KindState).
		return p, true
	}
	return p, p.Valid()
}

var errBadRecord = fmt.Errorf("durable: malformed record")

// decodeRecord decodes one payload into rec, reusing rec's slices. The
// decoded byte fields ALIAS payload.
func decodeRecord(rec *Record, payload []byte) error {
	d := recordDecoder{b: payload}
	var ok bool
	if rec.Kind, ok = d.u8(); !ok || (rec.Kind != KindDelta && rec.Kind != KindState) {
		return errBadRecord
	}
	lsn, ok := d.u64()
	if !ok {
		return errBadRecord
	}
	rec.LSN = int64(lsn)
	keyLen, ok := d.u16()
	if !ok {
		return errBadRecord
	}
	key, ok := d.take(int(keyLen))
	if !ok {
		return errBadRecord
	}
	rec.Key = string(key)
	ts, ok := d.u64()
	if !ok {
		return errBadRecord
	}
	rec.TS = int64(ts)
	rank, ok := d.u32()
	if !ok {
		return errBadRecord
	}
	rec.Rank = int32(rank)
	if rec.Cur, ok = d.value(); !ok {
		return errBadRecord
	}
	if rec.Prev, ok = d.value(); !ok {
		return errBadRecord
	}
	if rec.Sig, ok = d.value(); !ok {
		return errBadRecord
	}
	if rec.From, ok = d.pid(); !ok {
		return errBadRecord
	}
	rc, ok := d.u64()
	if !ok {
		return errBadRecord
	}
	rec.RCounter = int64(rc)
	nSeen, ok := d.u16()
	if !ok {
		return errBadRecord
	}
	rec.Seen = rec.Seen[:0]
	for i := 0; i < int(nSeen); i++ {
		p, ok := d.pid()
		if !ok {
			return errBadRecord
		}
		rec.Seen = append(rec.Seen, p)
	}
	nCtr, ok := d.u16()
	if !ok {
		return errBadRecord
	}
	rec.Counters = rec.Counters[:0]
	for i := 0; i < int(nCtr); i++ {
		pid, ok := d.u32()
		if !ok {
			return errBadRecord
		}
		n, ok := d.u64()
		if !ok {
			return errBadRecord
		}
		rec.Counters = append(rec.Counters, CounterEntry{PID: int32(pid), N: int64(n)})
	}
	if len(d.b) != 0 {
		return errBadRecord
	}
	return nil
}
