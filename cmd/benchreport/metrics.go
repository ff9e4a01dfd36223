package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the repo
// root lists the same names, units, directions and bounds; main_test.go
// asserts the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // regression bound (share of the parent's median); end-to-end metrics only
	// Moves says which end-to-end metric, on which workload, a change to
	// this layer metric should move (per-layer metrics only). It is the
	// prediction a later perf PR is checked against.
	Moves string
}

func (d metricDef) higherIsBetter() bool { return d.Better == "higher" }

// endToEnd are the seven metrics a user of the store sees, reported by every
// workload. A bound is the share of the parent's median by which a metric
// may get worse. The reference box changes speed by ~15% several times an
// hour (README, "A/A"), so the timing metrics carry the widest bound the
// benchmark contract allows; read_p99_us could not keep its run-to-run
// spread under even that and is the per-layer metric store.read_p99_us.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.06},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.06},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

const (
	movesSerial   = "read_p50_us, write_p50_us, ops_per_s on serial_mixed_inmem"
	movesTCP      = "ops_per_s on pipelined_mixed_tcp"
	movesDurable  = "ops_per_s, write_p50_us, read_p50_us on durable_pipelined_always"
	movesPred     = "read_p50_us, ops_per_s (and store.read_p99_us) on many_readers_inmem"
	movesAnyStore = "the same workload's end-to-end metrics"
	movesNone     = "no end-to-end metric (context only)"
)

// perWorkloadLayer are measured on the workload's own untraced run, from
// Store.Stats() deltas and the harness.
var perWorkloadLayer = []metricDef{
	{Name: "store.msgs_per_op", Unit: "count", Better: "lower", Moves: movesAnyStore},
	{Name: "store.frames_per_op", Unit: "count", Better: "lower", Moves: movesTCP},
	{Name: "store.read_rounds_per_op", Unit: "count", Better: "lower", Moves: "read_p50_us (the paper's claim: 1)"},
	{Name: "store.write_rounds_per_op", Unit: "count", Better: "lower", Moves: "write_p50_us (the paper's claim: 1)"},
	{Name: "store.fallback_read_share", Unit: "ratio", Better: "lower", Moves: movesNone},
	{Name: "store.server_mutations_per_op", Unit: "count", Better: "lower", Moves: movesDurable},
	{Name: "store.dropped_msgs", Unit: "count", Better: "lower", Moves: "failed operations"},
	{Name: "store.shed_drops", Unit: "count", Better: "lower", Moves: "failed operations"},
	{Name: "store.mailbox_high_water", Unit: "count", Better: "lower", Moves: "store.read_p99_us on the in-memory workloads"},
	{Name: "store.new_store_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "store.register_us_per_key", Unit: "us", Better: "lower", Moves: "setup_s"},
	{Name: "store.warmup_s", Unit: "s", Better: "lower", Moves: "lazily deferred set-up shows here, not in setup_s"},
	{Name: "store.cpu_us_per_op", Unit: "us", Better: "lower", Moves: "ops_per_s on the two pipelined workloads"},
	{Name: "store.read_p99_us", Unit: "us", Better: "lower", Moves: "the tail of read_p50_us (demoted from end-to-end: too noisy to bound)"},
	{Name: "store.write_p99_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "store.read_p999_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "store.gc_cycles", Unit: "count", Better: "lower", Moves: "alloc_bytes_per_op, store.read_p99_us"},
	{Name: "store.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "store.read_p99_us"},
	{Name: "durable.appends_per_op", Unit: "count", Better: "lower", Moves: movesDurable},
	{Name: "durable.fsyncs_per_op", Unit: "count", Better: "lower", Moves: movesDurable},
	{Name: "durable.snapshots", Unit: "count", Better: "lower", Moves: movesNone},
	{Name: "durable.append_errors", Unit: "count", Better: "lower", Moves: "failed operations"},
	{Name: "durable.restart_ms", Unit: "ms", Better: "lower", Moves: movesNone},
}

// cellLayer are the workload-independent cells of layers.go.
var cellLayer = []metricDef{
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Moves: movesTCP},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower", Moves: movesTCP},
	{Name: "wire.codec_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_op on pipelined_mixed_tcp"},
	{Name: "wire.batch_append_ns", Unit: "ns", Better: "lower", Moves: movesTCP},
	{Name: "wire.batch_foreach_ns", Unit: "ns", Better: "lower", Moves: movesTCP},
	{Name: "core.predicate_r1_ns", Unit: "ns", Better: "lower", Moves: "nothing above noise (0.6 us of a 20 us read)"},
	{Name: "core.predicate_r8_us", Unit: "us", Better: "lower", Moves: movesPred},
	{Name: "core.predicate_r16_us", Unit: "us", Better: "lower", Moves: movesPred},
	{Name: "core.predicate_r16_alloc_bytes", Unit: "B", Better: "lower", Moves: "alloc_bytes_per_op on many_readers_inmem"},
	{Name: "core.server_roundtrip_us", Unit: "us", Better: "lower", Moves: "read_p50_us on serial_mixed_inmem"},
	{Name: "sig.sign_us", Unit: "us", Better: "lower", Moves: "byz.serial_write_us only"},
	{Name: "sig.verify_us", Unit: "us", Better: "lower", Moves: "byz.* only"},
	{Name: "sig.cache_hit_ns", Unit: "ns", Better: "lower", Moves: "byz.serial_read_us only"},
	{Name: "byz.serial_read_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "byz.serial_write_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "durable.append_never_ns", Unit: "ns", Better: "lower", Moves: movesDurable},
	{Name: "durable.append_always_us", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "durable.sync_us", Unit: "us", Better: "lower", Moves: movesDurable},
	{Name: "durable.recover_ms", Unit: "ms", Better: "lower", Moves: "durable.restart_ms"},
	{Name: "transport.inmem_rtt_us", Unit: "us", Better: "lower", Moves: movesSerial},
	{Name: "transport.executor_rtt_us", Unit: "us", Better: "lower", Moves: movesSerial},
	{Name: "transport.demux_rtt_us", Unit: "us", Better: "lower", Moves: movesSerial},
	{Name: "transport.inmem_flood_msgs_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s on many_readers_inmem once the predicate is fixed"},
	{Name: "tcpnet.rtt_us", Unit: "us", Better: "lower", Moves: movesTCP},
	{Name: "tcpnet.flood_msgs_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s, alloc_bytes_per_op on pipelined_mixed_tcp"},
	{Name: "udpnet.rtt_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "udpnet.flood_msgs_per_s", Unit: "1/s", Better: "higher", Moves: movesNone},
	{Name: "protoutil.pipeline_op_us", Unit: "us", Better: "lower", Moves: "read_p50_us on serial_mixed_inmem, allocs_per_op everywhere"},
	{Name: "shard.do_ns", Unit: "ns", Better: "lower", Moves: "nothing above noise"},
	{Name: "stats.hist_record_ns", Unit: "ns", Better: "lower", Moves: "nothing (the harness does not use it)"},
	{Name: "topology.lookup_ns", Unit: "ns", Better: "lower", Moves: "setup_s on partitioned deployments only"},
	{Name: "abd.serial_read_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "maxmin.serial_read_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "regular.serial_read_us", Unit: "us", Better: "lower", Moves: movesNone},
}

// traceLayer come from the traced run of trace.go: the blocking chain of an
// operation as seen from node decorators outside the program.
var traceLayer = []metricDef{
	{Name: "trace.client_submit_us", Unit: "us", Better: "lower", Moves: "read_p50_us, write_p50_us"},
	{Name: "trace.net_request_us", Unit: "us", Better: "lower", Moves: "read_p50_us, write_p50_us"},
	{Name: "trace.server_handle_us", Unit: "us", Better: "lower", Moves: "read_p50_us, write_p50_us"},
	{Name: "trace.net_ack_us", Unit: "us", Better: "lower", Moves: "read_p50_us, write_p50_us"},
	{Name: "trace.client_complete_us", Unit: "us", Better: "lower", Moves: "read_p50_us, write_p50_us"},
	{Name: "trace.op_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "trace.unattributed_us", Unit: "us", Better: "lower", Moves: movesNone},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: movesNone},
}

// perLayer is every per-layer metric, in report order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), perWorkloadLayer...)
	out = append(out, cellLayer...)
	return append(out, traceLayer...)
}

// measured is one metric's result: the reported value plus how the rounds
// (or repetitions) behind it spread.
type measured struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	IQR    float64 `json:"iqr,omitempty"`
	N      int     `json:"n,omitempty"` // rounds or repetitions behind Value
	// Samples are the per-round (or per-repetition) values in run order;
	// only the -out report carries them.
	Samples []float64 `json:"samples,omitempty"`
}

// results collects measured metrics by name and refuses duplicates, so a
// metric can never be reported twice.
type results map[string]measured

func (r results) set(def metricDef, m measured) {
	if _, dup := r[def.Name]; dup {
		panic("benchreport: metric reported twice: " + def.Name)
	}
	m.Unit = def.Unit
	r[def.Name] = m
}

// fromSamples reports the quiet quartile of per-round (or per-repetition)
// samples, carrying their median and interquartile range along.
func (r results) fromSamples(def metricDef, samples []float64) {
	r.set(def, measured{
		Value:   quietQuartile(samples, def.higherIsBetter()),
		Median:  median(samples),
		IQR:     iqr(samples),
		N:       len(samples),
		Samples: samples,
	})
}

func (r results) scalar(def metricDef, v float64) { r.set(def, measured{Value: v}) }

// lookup finds a definition by name in defs; it panics on a typo, which the
// smoke test would catch.
func lookup(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("benchreport: unknown metric " + name)
}
