package main

import (
	"time"

	"mpi3rma/internal/telemetry"
)

// A plain run sets the workload up at least minSetups times, then again
// until it has done maxSetups or spent setupBudget on set-ups.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2500 * time.Millisecond
)

// Shares of -seconds a traced run gives its plain pass and its traced pass;
// the rest goes to the short passes and the layer drives.
const (
	tracedPlainShare = 0.3
	tracedPassShare  = 0.3
	shortPassSeconds = 0.4
	shortPassScale   = 0.1
)

// outcome is one run of one workload in one mode.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	correct   bool
	detail    map[string]any     // quartiles and sample counts, for the result file
	spread    map[string]float64 // interquartile range of a metric's rounds over their median
}

func newOutcome() *outcome {
	return &outcome{correct: true, detail: map[string]any{}, spread: map[string]float64{}}
}

// roundSpread is the interquartile range of per-round values over their
// median, averaged over the phases.
func roundSpread(res *passResult, rounds func(ph *phaseResult) []float64) float64 {
	return meanOverPhases(res, func(ph *phaseResult) float64 {
		q1, med, q3 := quartiles(rounds(ph))
		return ratio(q3-q1, med)
	})
}

func (o *outcome) absorb(res *passResult) {
	o.attempted += totalOps(res) + res.checks
	o.failed += res.failed
	o.correct = o.correct && res.verified
}

func meanOverPhases(res *passResult, f func(ph *phaseResult) float64) float64 {
	if len(res.phases) == 0 {
		return 0
	}
	var sum float64
	for _, ph := range res.phases {
		sum += f(ph)
	}
	return sum / float64(len(res.phases))
}

// harmonicOverPhases combines per-phase rates so that every phase weighs the
// same number of operations.
func harmonicOverPhases(res *passResult, rate func(ph *phaseResult) float64) float64 {
	return ratio(1, meanOverPhases(res, func(ph *phaseResult) float64 { return 1 / rate(ph) }))
}

func opsPerSecond(res *passResult) float64 { return harmonicOverPhases(res, (*phaseResult).rate) }

// hostMemMB is the largest phase's median of the memory held from the
// operating system, sampled after every measured round.
func hostMemMB(res *passResult) float64 {
	var mb float64
	for _, ph := range res.phases {
		if m := median(ph.memMB); m > mb {
			mb = m
		}
	}
	return mb
}

func modelPerOp(res *passResult) float64 {
	return meanOverPhases(res, func(ph *phaseResult) float64 { return median(ph.modelPerOp()) })
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func totalOps(res *passResult) int64 {
	var n int64
	for _, ph := range res.phases {
		n += ph.ops()
	}
	return n
}

// runPlain is a --trace 0 run: several set-ups, the last of which goes on to
// measure for seconds with every instrument off; setup_s is the median of
// the set-ups. Quick runs set up once.
func runPlain(wl *workload, seed int64, seconds, scale float64) (*outcome, error) {
	var setups []float64
	most := maxSetups
	if scale < 1 {
		most = 1
	}
	began := time.Now()
	for n := 1; n < most && (n < minSetups || time.Since(began) < setupBudget); n++ {
		res, err := runPass(wl, passOpts{seed: seed, scale: scale})
		if err != nil {
			return nil, err
		}
		setups = append(setups, res.setupS)
	}
	res, err := runPass(wl, passOpts{seed: seed, seconds: seconds, scale: scale})
	if err != nil {
		return nil, err
	}
	setups = append(setups, res.setupS)

	out := newOutcome()
	out.absorb(res)
	out.spread["ops_per_s"] = roundSpread(res, (*phaseResult).rates)
	out.values = map[string]float64{
		"ops_per_s":          opsPerSecond(res),
		"allocs_per_op":      meanOverPhases(res, func(ph *phaseResult) float64 { return ratio(float64(ph.mallocs), float64(ph.ops())) }),
		"alloc_bytes_per_op": meanOverPhases(res, func(ph *phaseResult) float64 { return ratio(float64(ph.allocBytes), float64(ph.ops())) }),
		"host_mem_mb":        hostMemMB(res),
		"setup_s":            median(setups),
	}
	checkNames(out.values, endToEndDefs)
	for _, ph := range res.phases {
		q1, med, q3 := quartiles(ph.rates())
		out.detail["ops_per_s."+ph.name] = map[string]any{"q1": q1, "median": med, "q3": q3, "rounds": len(ph.wall)}
	}
	out.detail["setup_s"] = setups
	return out, nil
}

// opKinds are the calls that are logical operations.
var opKinds = []callKind{kPut, kGet, kDhtGet, kDhtPut, kEnqueue, kDequeue}

func mergedRecorder(rs ...*recorder) *recorder {
	out := newRecorder()
	for _, r := range rs {
		out.merge(r)
	}
	return out
}

// stageMetric maps a critical-path stage to the layer metric that reports it.
var stageMetric = map[string]string{
	telemetry.StagePack:             "datatype.stage.pack.model_ns",
	telemetry.StageWire:             "simnet.stage.wire.model_ns",
	telemetry.StageRetransmitStall:  "portals.stage.retransmit_stall.model_ns",
	telemetry.StageShardQueue:       "portals.stage.shard_queue.model_ns",
	telemetry.StageAckNotify:        "portals.stage.ack_notify.model_ns",
	telemetry.StageIssueQueue:       "core.stage.issue_queue.model_ns",
	telemetry.StageApply:            "core.stage.apply.model_ns",
	telemetry.StageCompletionWakeup: "core.stage.completion_wakeup.model_ns",
}

// shortPassWorkloads are the workloads some per-layer metrics belong to
// (specificMetrics). A traced run of another workload measures them on a
// short traced pass of their own workload, so that every traced run reports
// every per-layer metric as measured.
var shortPassWorkloads = []string{"put_8b", "strided_getput", "fig2_attrs", "dht_zipf", "queue_handoff"}

// runTraced is a --trace 1 run: a plain pass for the counters the program
// always keeps, a traced pass of the same workload, a short traced pass of
// every other workload some metric belongs to, and the layer drives.
func runTraced(wl *workload, seed int64, seconds, scale float64, outDir string) (*outcome, error) {
	out := newOutcome()
	plain, err := runPass(wl, passOpts{seed: seed, seconds: seconds * tracedPlainShare, scale: scale})
	if err != nil {
		return nil, err
	}
	out.absorb(plain)

	spanCap := 0
	if outDir != "" {
		spanCap = 1 << 15
	}
	traced := map[string]*passResult{}
	if traced[wl.name], err = runPass(wl, passOpts{seed: seed, seconds: seconds * tracedPassShare, scale: scale, traced: true, spanCap: spanCap}); err != nil {
		return nil, err
	}
	for _, name := range shortPassWorkloads {
		if name == wl.name {
			continue
		}
		if traced[name], err = runPass(findWorkload(name), passOpts{seed: seed, seconds: shortPassSeconds * scale, scale: shortPassScale * scale, traced: true}); err != nil {
			return nil, err
		}
	}
	for _, res := range traced {
		out.absorb(res)
	}

	out.values = map[string]float64{}
	workloadMetrics(out, plain, traced[wl.name])
	specificMetrics(out.values, traced)
	if err := runDrives(out.values, seed, scale); err != nil {
		return nil, err
	}
	checkNames(out.values, perLayerDefs)

	if outDir != "" {
		if err := writeSpans(outDir, wl.name, traced[wl.name].spans); err != nil {
			return nil, err
		}
		if err := writeJSON(outDir+"/critpath-"+wl.name+".json", traced[wl.name].crit); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// workloadMetrics fills the per-layer metrics every workload has: counters
// and the modelled clock from its plain pass, stages and wall spans from its
// traced pass tw.
func workloadMetrics(out *outcome, plain, tw *passResult) {
	v := out.values
	ops := float64(totalOps(plain))
	v["model_ns_per_op"] = modelPerOp(plain)
	out.spread["model_ns_per_op"] = roundSpread(plain, (*phaseResult).modelPerOp)
	v["model_p50_ns"] = plain.model.quantile(0.50)
	v["model_p99_ns"] = plain.model.quantile(0.99)
	v["simnet.msgs_per_op"] = ratio(plain.counter("simnet.msgs"), ops)
	v["simnet.bytes_per_op"] = ratio(plain.counter("simnet.bytes"), ops)
	v["core.complete_fastpath_share"] = ratio(plain.counter("core.fast_paths"), plain.counter("core.complete_calls"))
	v["core.probes_per_op"] = ratio(plain.counter("core.probes"), ops)
	v["core.acks_per_op"] = ratio(plain.counter("core.acks_sent"), ops)
	v["core.applied_per_op"] = ratio(plain.counter("core.ops_applied"), ops)
	var cpuUS, gcCycles, gcPauseMS float64
	for _, ph := range plain.phases {
		cpuUS += float64(ph.cpu.Microseconds())
		gcCycles += float64(ph.gcCycles)
		gcPauseMS += float64(ph.gcPauseNS) / 1e6
	}
	v["host.cpu_us_per_op"] = ratio(cpuUS, ops)
	v["host.gc_cycles"] = gcCycles
	v["host.gc_pause_ms"] = gcPauseMS
	v["host.ops_per_s_median"] = harmonicOverPhases(plain, func(ph *phaseResult) float64 { return median(ph.rates()) })

	var spans, reconciled, totalVT, other float64
	for _, name := range stageMetric {
		v[name] = 0
	}
	for _, rep := range tw.crit {
		spans += float64(rep.Spans)
		reconciled += float64(rep.Reconciled)
		totalVT += float64(rep.TotalVTime)
		for _, st := range rep.Stages {
			if name, ok := stageMetric[st.Stage]; ok {
				v[name] += float64(st.Total)
			} else {
				other += float64(st.Total)
			}
		}
	}
	for _, name := range stageMetric {
		v[name] = ratio(v[name], spans)
	}
	v["telemetry.critpath_other_share"] = ratio(other, totalVT)
	v["telemetry.critpath_reconciled_share"] = ratio(reconciled, spans)
	v["telemetry.trace_overhead_pct"] = 100 * (1 - ratio(opsPerSecond(tw), opsPerSecond(plain)))
	v["host.harness_self_share"] = 1 - ratio(float64(tw.inCalls), float64(tw.inLoop))
	var opWall []*recorder
	for _, k := range opKinds {
		opWall = append(opWall, tw.wall[k])
	}
	allOps := mergedRecorder(opWall...)
	v["host.op_wall_p50_ns"] = allOps.quantile(0.50)
	v["host.op_wall_p99_ns"] = allOps.quantile(0.99)
	out.detail["samples"] = map[string]any{"model": plain.model.n, "op_wall": allOps.n, "critpath_spans": spans}
}

// specificMetrics fills the per-layer metrics that belong to one workload
// from that workload's traced pass.
func specificMetrics(v map[string]float64, traced map[string]*passResult) {
	t := traced["put_8b"]
	v["rma.put.wall_p50_ns"] = t.wall[kPut].quantile(0.50)
	v["rma.put.wall_p99_ns"] = t.wall[kPut].quantile(0.99)
	v["rma.complete.wall_p50_ns"] = t.wall[kComplete].quantile(0.50)
	v["rma.complete.model_ns"] = t.vt[kComplete].mean()

	t = traced["strided_getput"]
	v["rma.get.wall_p50_ns"] = t.wall[kGet].quantile(0.50)
	v["rma.get.wall_p99_ns"] = t.wall[kGet].quantile(0.99)

	t = traced["fig2_attrs"]
	phaseModel := func(name string) float64 { return median(t.phase(name).modelPerOp()) }
	v["core.attr.ordering.model_ns_per_op"] = phaseModel("ordering")
	v["portals.attr.remote_complete.model_ns_per_op"] = phaseModel("remote_complete")
	v["portals.attr.remote_complete.ops_per_s"] = t.phase("remote_complete").rate()
	v["serializer.thread.model_ns_per_op"] = phaseModel("atomic_thread")
	v["serializer.coarse_lock.model_ns_per_op"] = phaseModel("atomic_coarse_lock")
	v["serializer.lock_contended_share"] = ratio(t.counter("serializer.lock_contended"), t.counter("serializer.lock_grants"))

	t = traced["dht_zipf"]
	reqs := float64(totalOps(t))
	v["dht.get.wall_p50_ns"] = t.wall[kDhtGet].quantile(0.50)
	v["dht.put.wall_p50_ns"] = t.wall[kDhtPut].quantile(0.50)
	v["dht.get.model_p50_ns"] = t.vt[kDhtGet].quantile(0.50)
	v["dht.put.model_p50_ns"] = t.vt[kDhtPut].quantile(0.50)
	v["dht.probe_steps_per_op"] = ratio(t.counter("dht.probe_steps"), reqs)
	v["dht.lock_retries_per_op"] = ratio(t.counter("dht.lock_retries"), reqs)
	v["dht.cas_races_per_op"] = ratio(t.counter("dht.cas_races"), reqs)
	v["dht.rma_ops_per_request"] = ratio(t.counter("core.ops_issued"), reqs)

	t = traced["queue_handoff"]
	v["dht.queue.polls_per_handoff"] = ratio(t.counter("dht.queue.polls"), t.counter("dht.queue.dequeues"))
	v["dht.queue.enqueue.model_p50_ns"] = t.vt[kEnqueue].quantile(0.50)
	v["dht.queue.dequeue.model_p50_ns"] = t.vt[kDequeue].quantile(0.50)
	v["dht.queue.enqueue.wall_p50_ns"] = t.wall[kEnqueue].quantile(0.50)
	v["dht.queue.dequeue.wall_p50_ns"] = t.wall[kDequeue].quantile(0.50)
	v["dht.queue.handoff.model_p99_ns"] = mergedRecorder(t.vt[kEnqueue], t.vt[kDequeue]).quantile(0.99)
}
