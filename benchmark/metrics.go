package main

import "fmt"

// metricDef names one metric. BENCHMARK.json is printed from these tables
// (-spec), so the names the program emits and the names the file lists
// cannot drift apart.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 10

// Units. Virtual time is in "vns", nanoseconds on the modelled clock, to keep
// it apart from host time: it repeats exactly where a single origin issues.
const (
	uNS     = "ns"
	uVNS    = "vns"
	uAllocs = "allocs"
	uPerOp  = "1/op"
	uShare  = "share"
)

// endToEndDefs are what a user of the simulator sees, all on the host clock
// with every instrument off. The bounds are those of the issue, widened to
// the widest workload because BENCHMARK.json has one bound per metric;
// -compare keeps the issue's per-workload bounds (compare.go).
var endToEndDefs = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.25},
	{"allocs_per_op", uPerOp, "lower", 0.15},
	{"alloc_bytes_per_op", "B/op", "lower", 0.20},
	{"host_mem_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs is filled by init in the order the README lists the layers.
var perLayerDefs []metricDef

func init() {
	add := func(name, unit, better string) {
		perLayerDefs = append(perLayerDefs, metricDef{name: name, unit: unit, better: better})
	}
	lower := func(unit string, names ...string) {
		for _, n := range names {
			add(n, unit, "lower")
		}
	}

	// The modelled clock end to end (see README: why these are not in
	// end_to_end).
	lower(uVNS, "model_ns_per_op", "model_p50_ns", "model_p99_ns")

	for _, op := range []string{"pack", "unpack", "compatible"} {
		for _, sh := range []string{"b8", "b1k", "vec"} {
			lower(uNS, "datatype."+op+"."+sh+".ns")
			lower(uAllocs, "datatype."+op+"."+sh+".allocs")
		}
	}
	lower(uVNS, "datatype.stage.pack.model_ns")

	lower(uNS, "memsim.remote_write.b8.ns", "memsim.remote_write.b1k.ns", "memsim.remote_read.b1k.ns", "memsim.update.w8.ns")
	lower(uAllocs, "memsim.remote_write.b8.allocs", "memsim.remote_write.b1k.allocs")
	lower("ms", "memsim.new.ms")

	lower(uNS, "simnet.send_recv.b8.ns", "simnet.send_recv.b1k.ns")
	lower(uAllocs, "simnet.send_recv.b8.allocs")
	lower(uPerOp, "simnet.msgs_per_op")
	lower("B/op", "simnet.bytes_per_op")
	lower(uVNS, "simnet.stage.wire.model_ns")

	lower(uNS, "portals.md_put_ack.b8.ns")
	lower(uAllocs, "portals.md_put_ack.b8.allocs")
	lower(uVNS, "portals.stage.retransmit_stall.model_ns", "portals.stage.shard_queue.model_ns", "portals.stage.ack_notify.model_ns")
	lower(uVNS, "portals.attr.remote_complete.model_ns_per_op")
	add("portals.attr.remote_complete.ops_per_s", "op/s", "higher")

	lower(uNS, "serializer.apply_queue.ns", "serializer.lock_cycle.ns")
	lower(uAllocs, "serializer.apply_queue.allocs")
	lower(uVNS, "serializer.thread.model_ns_per_op", "serializer.coarse_lock.model_ns_per_op")
	lower(uShare, "serializer.lock_contended_share")

	add("core.complete_fastpath_share", uShare, "higher")
	lower(uPerOp, "core.probes_per_op", "core.acks_per_op", "core.applied_per_op")
	lower(uVNS, "core.stage.issue_queue.model_ns", "core.stage.apply.model_ns", "core.stage.completion_wakeup.model_ns")
	lower(uVNS, "core.attr.ordering.model_ns_per_op")

	lower(uNS, "rma.put.wall_p50_ns", "rma.put.wall_p99_ns", "rma.get.wall_p50_ns", "rma.get.wall_p99_ns", "rma.complete.wall_p50_ns")
	lower(uVNS, "rma.complete.model_ns")
	lower(uNS, "rma.cas.ns", "rma.fetch_add.ns")

	lower("ms", "runtime.world_new.ms")
	lower(uNS, "runtime.barrier.ns")

	lower(uNS, "dht.get.wall_p50_ns", "dht.put.wall_p50_ns")
	lower(uVNS, "dht.get.model_p50_ns", "dht.put.model_p50_ns")
	lower(uPerOp, "dht.probe_steps_per_op", "dht.lock_retries_per_op", "dht.cas_races_per_op", "dht.rma_ops_per_request")

	lower(uPerOp, "dht.queue.polls_per_handoff")
	lower(uVNS, "dht.queue.enqueue.model_p50_ns", "dht.queue.dequeue.model_p50_ns", "dht.queue.handoff.model_p99_ns")
	lower(uNS, "dht.queue.enqueue.wall_p50_ns", "dht.queue.dequeue.wall_p50_ns")

	for _, ins := range instruments {
		lower("ns/op", "telemetry."+ins.name+".tax_ns_per_op")
		lower(uPerOp, "telemetry."+ins.name+".tax_allocs_per_op")
	}
	lower("%", "telemetry.trace_overhead_pct")
	lower(uShare, "telemetry.critpath_other_share")
	add("telemetry.critpath_reconciled_share", uShare, "higher")

	lower("us/op", "host.cpu_us_per_op")
	lower("count", "host.gc_cycles")
	lower("ms", "host.gc_pause_ms")
	lower(uShare, "host.harness_self_share")
	lower(uNS, "host.op_wall_p50_ns", "host.op_wall_p99_ns")
	add("host.ops_per_s_median", "op/s", "higher")
}

// checkNames panics when values and defs do not name the same metrics: a
// metric emitted under a name BENCHMARK.json does not list, or one it lists
// that nothing computed, is a bug in this program.
func checkNames(values map[string]float64, defs []metricDef) {
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		if _, ok := values[d.name]; !ok {
			panic(fmt.Sprintf("metric %s was not computed", d.name))
		}
	}
	for name := range values {
		if !want[name] {
			panic(fmt.Sprintf("metric %s is not defined", name))
		}
	}
}
