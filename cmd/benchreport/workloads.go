package main

import (
	"fmt"
	"hash/fnv"

	"fastread/internal/workload"
)

// valueSize is the size of every written value; its first 8 bytes carry the
// key's write sequence number, which the fast register must hand back as the
// read's Version.
const valueSize = 128

// zipfExponent skews the key stream (YCSB's default).
const zipfExponent = 0.99

// spec is one workload: a deployment, a closed-loop load and a reference
// size. All four run ProtocolFast with 128 B values; a client goroutine has
// Depth operations outstanding (1 = the paper's client model, blocking
// Read/Write calls).
type spec struct {
	Name string
	Why  string // one line; BENCHMARK.json carries the same text

	Servers, Faulty, Readers int
	TCP                      bool // loopback sockets instead of the in-memory network
	Durable                  bool // DataDir + Fsync: always
	Keys                     int
	Clients                  int // client goroutines, <= nproc on the reference box
	Depth                    int // operations in flight per client goroutine
	ReadShare                float64

	// Ops is the operation count of one round. It is never scaled: a round
	// is a fixed amount of work, and a time budget only decides how many
	// rounds run.
	Ops int
}

var workloads = []spec{
	{
		Name:    "serial_mixed_inmem",
		Why:     "One blocking client, S=4 in memory, 90% reads: no socket, log or real predicate, so engine, demux, transport and handoff do all the work; codec, WAL and predicate changes predict no change.",
		Servers: 4, Faulty: 1, Readers: 1, Keys: 1024, Clients: 1, Depth: 1, ReadShare: 0.90,
		Ops: 36864,
	},
	{
		Name:    "pipelined_mixed_tcp",
		Why:     "Two clients x 16 in flight over loopback TCP, 50% reads: both cores saturated with batched frames, so codec, batching, arena decode, tcpnet and syscalls dominate; read ops_per_s here.",
		Servers: 4, Faulty: 1, Readers: 1, TCP: true, Keys: 1024, Clients: 2, Depth: 16, ReadShare: 0.50,
		Ops: 49152,
	},
	{
		Name:    "durable_pipelined_always",
		Why:     "As the serial deployment plus a write-ahead log with fsync always, 2 x 16 in flight, 64 keys: one fsync per record on every server dominates, so group commit must show here and nowhere else.",
		Servers: 4, Faulty: 1, Readers: 1, Durable: true, Keys: 64, Clients: 2, Depth: 16, ReadShare: 0.50,
		// 2560, not 2048: half of a round's operations are reads, and a round
		// must leave 10 read samples beyond its p99 whatever the seed.
		Ops: 2560,
	},
	{
		Name:    "many_readers_inmem",
		Why:     "S=19 t=1 R=16, 4 keys, 99% reads rotating over 16 reader handles: nearly every read evaluates the predicate over 17 clients and fans out to 19 servers; the only wide-quorum load.",
		Servers: 19, Faulty: 1, Readers: 16, Keys: 4, Clients: 1, Depth: 1, ReadShare: 0.99,
		Ops: 1024,
	},
}

func workloadByName(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func keyName(i int) string { return fmt.Sprintf("k%04d", i) }

// op is one generated operation. The program under test only ever sees
// these: the seed never reaches it.
type op struct {
	key    int32 // index into the workload's keys
	reader int8  // 0 = write; i > 0 = read through the key's reader handle i
}

// stream generates one client goroutine's operations. Keys are partitioned
// by index (key mod Clients == client), so every key has exactly one
// submitter and the correctness check needs no synchronisation; within its
// partition a client draws ranks from a zipfian, so both clients see the same
// skew. Reads of a key rotate round-robin over its reader handles.
type stream struct {
	sp     *spec
	client int
	rng    *workload.Rand
	zipf   *workload.Zipf
	rot    []int8 // per local rank: the reader handle used last
}

// newStreams derives one independent stream per client from the seed. The
// streams continue across rounds, so the operation sequence depends on the
// seed alone, not on how many rounds a time budget allows.
func newStreams(sp *spec, seed int64) []*stream {
	root := workload.NewRand(seed)
	out := make([]*stream, sp.Clients)
	local := sp.Keys / sp.Clients
	for c := range out {
		rng := workload.NewRand(int64(root.Uint64()))
		out[c] = &stream{
			sp:     sp,
			client: c,
			rng:    rng,
			zipf:   workload.NewZipf(rng, local, zipfExponent),
			rot:    make([]int8, local),
		}
	}
	return out
}

// fill overwrites ops with the stream's next len(ops) operations.
func (s *stream) fill(ops []op) {
	for i := range ops {
		r := s.zipf.Next()
		o := op{key: int32(r*s.sp.Clients + s.client)}
		if s.rng.Float64() < s.sp.ReadShare {
			s.rot[r] = s.rot[r]%int8(s.sp.Readers) + 1
			o.reader = s.rot[r]
		}
		ops[i] = o
	}
}

// streamHash fingerprints the first `rounds` rounds of `ops` operations the
// seed generates, over all clients. Equal seeds give equal hashes; the
// report prints it so two runs can be shown to have had the same input.
func streamHash(sp *spec, seed int64, rounds, ops int) uint64 {
	h := fnv.New64a()
	buf := make([]op, ops/sp.Clients)
	for _, s := range newStreams(sp, seed) {
		for r := 0; r < rounds; r++ {
			s.fill(buf)
			for _, o := range buf {
				h.Write([]byte{byte(o.key), byte(o.key >> 8), byte(o.key >> 16), byte(o.reader)})
			}
		}
	}
	return h.Sum64()
}
