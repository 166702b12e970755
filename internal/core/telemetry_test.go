package core

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
)

// TestTelemetryReconciliation replays the seven-writer contention scenario
// with mixed batched and singleton traffic and reconciles every counter
// the telemetry layer exports: per (origin, target) pair, sent ==
// batched + singleton == confirmed, the registry's issue-side split adds
// up, and the target's applied count matches what each origin issued —
// ops issued == applied == completed at epoch close. Runs under -race via
// make check.
func TestTelemetryReconciliation(t *testing.T) {
	const (
		writers    = 7
		batchedOps = 16
		singletons = 3 // FetchAdds: always singleton wire messages
		perRing    = 4
	)
	w := newWorld(t, runtime.Config{Ranks: writers + 1})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{BatchOps: perRing})
		reg := e.EnableTelemetry(nil)
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(writers * 16)
			for r := 1; r <= writers; r++ {
				p.Send(r, 0, tm.Encode())
			}
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			// Applied-side reconciliation: every origin's issue count has
			// landed here by the time the collective epoch closed.
			for r := 1; r <= writers; r++ {
				if got := e.AppliedFrom(r); got != batchedOps+singletons {
					t.Errorf("applied %d ops from origin %d, want %d", got, r, batchedOps+singletons)
				}
			}
			snap := reg.Snapshot()
			if got := snap.Counters["ops.applied"]; got != int64(writers*(batchedOps+singletons)) {
				t.Errorf("target applied %d total, want %d", got, writers*(batchedOps+singletons))
			}
			// Memory-level ground truth: each writer's accumulate slot.
			buf := p.Mem().Snapshot(region.Offset, writers*16)
			for r := 1; r <= writers; r++ {
				got := int64(binary.LittleEndian.Uint64(buf[(r-1)*16:]))
				if got != batchedOps {
					t.Errorf("writer %d accumulate slot holds %d, want %d", r, got, batchedOps)
				}
				fa := int64(binary.LittleEndian.Uint64(buf[(r-1)*16+8:]))
				if fa != singletons {
					t.Errorf("writer %d fetch-add slot holds %d, want %d", r, fa, singletons)
				}
			}
			return
		}

		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		var one [8]byte
		binary.LittleEndian.PutUint64(one[:], 1)
		p.WriteLocal(src, 0, one[:])
		disp := (p.Rank() - 1) * 16
		for i := 0; i < batchedOps; i++ {
			if _, err := e.Accumulate(AccSum, src, 1, datatype.Int64, tm, disp, 1, datatype.Int64, 0, comm, AttrAtomic); err != nil {
				t.Fatalf("accumulate %d: %v", i, err)
			}
		}
		for i := 0; i < singletons; i++ {
			if _, err := e.FetchAdd(tm, disp+8, 1, 0, comm, AttrNone); err != nil {
				t.Fatalf("fetch-add %d: %v", i, err)
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}

		pc := e.PairCounters(0)
		if pc.Sent != batchedOps+singletons {
			t.Errorf("pair sent = %d, want %d", pc.Sent, batchedOps+singletons)
		}
		if pc.Batched+pc.Singleton != pc.Sent {
			t.Errorf("batched %d + singleton %d != sent %d", pc.Batched, pc.Singleton, pc.Sent)
		}
		if pc.Batched != batchedOps || pc.Singleton != singletons {
			t.Errorf("pair split batched=%d singleton=%d, want %d/%d", pc.Batched, pc.Singleton, batchedOps, singletons)
		}
		if pc.Confirmed != pc.Sent {
			t.Errorf("after Complete, confirmed = %d, want sent = %d", pc.Confirmed, pc.Sent)
		}
		snap := reg.Snapshot()
		issued := snap.Counters["ops.issued"]
		if issued != int64(batchedOps+singletons) {
			t.Errorf("registry ops.issued = %d, want %d", issued, batchedOps+singletons)
		}
		if co, si := snap.Counters["batch.ops_coalesced"], snap.Counters["batch.singleton_ops"]; co+si != issued {
			t.Errorf("batch.ops_coalesced %d + batch.singleton_ops %d != ops.issued %d", co, si, issued)
		}
		if got := snap.Counters["batch.flushes"]; got != batchedOps/perRing {
			t.Errorf("registry batch.flushes = %d, want %d", got, batchedOps/perRing)
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
}

// TestTelemetrySpanCrossRank drives one remote-complete put through two
// traced ranks and reconstructs its span from the merged rings: the same
// operation id must be followable issue (origin) → apply (target) → ack
// (origin), which is the correctness oracle the sidecar exporters rely on.
func TestTelemetrySpanCrossRank(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	var mu sync.Mutex
	rings := make(map[int]*trace.Ring)
	var putID uint64
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		e.SetTracer(trace.New(0))
		mu.Lock()
		rings[p.Rank()] = e.Tracer()
		mu.Unlock()
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, _ := e.ExposeNew(64)
			p.Send(1, 0, tm.Encode())
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(64)
		req, err := e.Put(src, 64, datatype.Byte, tm, 0, 64, datatype.Byte, 0, comm, AttrRemoteComplete)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		req.Wait()
		mu.Lock()
		putID = req.ID()
		mu.Unlock()
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})

	perRank := make(map[int][]trace.Event)
	for r, ring := range rings {
		perRank[r] = ring.Snapshot()
	}
	spans := telemetry.Spans(trace.MergeRanks(perRank))
	var span *telemetry.Span
	for i := range spans {
		if spans[i].Origin == 1 && spans[i].ID == putID {
			span = &spans[i]
		}
	}
	if span == nil {
		t.Fatalf("no span reconstructed for put id %d (got %d spans)", putID, len(spans))
	}
	steps := make(map[string]int) // cat -> recording rank
	for i, cat := range span.Path {
		steps[cat] = span.Ranks[i]
	}
	if r, ok := steps["issue"]; !ok || r != 1 {
		t.Errorf("span %v: want an issue step recorded at rank 1", span.Path)
	}
	if r, ok := steps["apply"]; !ok || r != 0 {
		t.Errorf("span %v: want an apply step recorded at rank 0", span.Path)
	}
	if r, ok := steps["ack"]; !ok || r != 1 {
		t.Errorf("span %v: want an ack step recorded at rank 1", span.Path)
	}
	if span.End < span.Begin {
		t.Errorf("span end %d before begin %d", span.End, span.Begin)
	}
}

// pinned is one row of the allocation table: a primitive, the engine
// options it runs under, and the exact number of heap objects one call
// costs in the steady state, origin and target together. The simulator is
// deterministic here, so the numbers are asserted with ==; a single
// instrumentation call that escapes its nil guard, boxes an argument or
// formats a string, a closure built per delivery, a channel made per wait
// shows up as a failure that names the primitive. DESIGN.md §5 says what
// each object is.
type pinned struct {
	name string
	opts Options
	want float64
	op   func(c *pinCtx)
}

// pinCtx is what a row's op works with, on the origin rank.
type pinCtx struct {
	t         *testing.T
	e, target *Engine
	comm      *runtime.Comm
	tm        TargetMem
	src, dst  memsim.Region
	issued    int64 // operations issued so far; settle waits for the target to have applied them
	notified  int64 // of those, the ones that come back as a notification
}

// settle returns once the target has applied everything issued and the
// origin has handled every notification owed, so both ranks' handler
// allocations fall inside the measurement that issued the operation.
func (c *pinCtx) settle() {
	c.issued++
	for c.target.OpsApplied.Value() < c.issued || c.e.Notifies.Value() < c.notified {
		pollYield()
	}
}

func (c *pinCtx) put(attrs Attr) {
	req, err := c.e.Put(c.src, 1, datatype.Int64, c.tm, 0, 1, datatype.Int64, 0, c.comm, attrs)
	if err != nil {
		c.t.Fatalf("put: %v", err)
	}
	req.Wait()
	c.settle()
}

// pinVec is the benchmark's strided shape.
var pinVec = datatype.Vector(8, 1, 2, datatype.Int64)

// pinBytes sizes the target exposure and the origin's buffers: a 1 KiB put,
// and 8 instances of pinVec (960 bytes).
const pinBytes = 1024

// The engine configurations the table's rows run under.
var (
	pinThread  = Options{Atomicity: serializer.MechThread}
	pinCoarse  = Options{Atomicity: serializer.MechCoarseLock}
	pinBatched = Options{Atomicity: serializer.MechThread, BatchOps: 8}
)

// allocTable is the committed per-primitive table. `make allocs` prints it.
var allocTable = []pinned{
	{"put", pinThread, 1, func(c *pinCtx) { c.put(0) }},
	{"blocking put", pinThread, 0, func(c *pinCtx) { c.put(AttrBlocking) }},
	{"put 1 KiB", pinThread, 1, func(c *pinCtx) {
		req, err := c.e.Put(c.src, pinBytes, datatype.Byte, c.tm, 0, pinBytes, datatype.Byte, 0, c.comm, 0)
		if err != nil {
			c.t.Fatalf("put: %v", err)
		}
		req.Wait()
		c.settle()
	}},
	{"put notify", pinThread, 1, func(c *pinCtx) { c.notified++; c.put(AttrNotify) }},
	{"put notify + complete", pinThread, 1, func(c *pinCtx) {
		c.notified++
		c.put(AttrNotify)
		if err := c.e.Complete(c.comm, 0); err != nil {
			c.t.Fatalf("complete: %v", err)
		}
	}},
	{"put remote-complete", pinThread, 1, func(c *pinCtx) { c.put(AttrRemoteComplete) }},
	{"put atomic (thread)", pinThread, 1, func(c *pinCtx) { c.put(AttrAtomic) }},
	{"put atomic (coarse lock)", pinCoarse, 4, func(c *pinCtx) { c.put(AttrAtomic) }},
	{"put 8 x vector(8,1,2,int64)", pinThread, 1, func(c *pinCtx) {
		req, err := c.e.Put(c.src, 8, pinVec, c.tm, 0, 8, pinVec, 0, c.comm, 0)
		if err != nil {
			c.t.Fatalf("put: %v", err)
		}
		req.Wait()
		c.settle()
	}},
	{"get 8 x vector(8,1,2,int64)", pinThread, 0, func(c *pinCtx) {
		if _, err := c.e.Get(c.dst, 8, pinVec, c.tm, 0, 8, pinVec, 0, c.comm, AttrBlocking); err != nil {
			c.t.Fatalf("get: %v", err)
		}
		c.settle()
	}},
	{"fetch word", pinThread, 0, func(c *pinCtx) {
		if _, err := c.e.FetchWord(c.tm, 0, 0, c.comm, 0); err != nil {
			c.t.Fatalf("fetch word: %v", err)
		}
		c.settle()
	}},
	{"compare-and-swap", pinThread, 0, func(c *pinCtx) {
		if _, err := c.e.CompareSwap(c.tm, 0, 0, 1, 0, c.comm, 0); err != nil {
			c.t.Fatalf("compare-and-swap: %v", err)
		}
		c.settle()
	}},
	{"fetch-and-add", pinThread, 0, func(c *pinCtx) {
		if _, err := c.e.FetchAdd(c.tm, 0, 1, 0, c.comm, 0); err != nil {
			c.t.Fatalf("fetch-and-add: %v", err)
		}
		c.settle()
	}},
	{"8 puts batched (BatchOps 8)", pinBatched, 11, func(c *pinCtx) {
		for i := 0; i < 8; i++ {
			if _, err := c.e.Put(c.src, 1, datatype.Int64, c.tm, 8*i, 1, datatype.Int64, 0, c.comm, 0); err != nil {
				c.t.Fatalf("batched put %d: %v", i, err)
			}
		}
		c.e.Flush()
		c.issued += 7
		c.notified++ // the aggregate's one notification
		c.settle()
		if err := c.e.Complete(c.comm, 0); err != nil {
			c.t.Fatalf("complete: %v", err)
		}
	}},
}

// allocStep installs something on a rank's engine before a measurement.
type allocStep struct {
	name    string
	install func(e *Engine)
}

// pinAllocs measures every row of allocTable that runs under opts on a
// two-rank world, once after each step has been installed on both ranks:
// whatever is installed, a primitive must cost exactly its committed
// number. It returns the origin's engine.
func pinAllocs(t *testing.T, opts Options, steps []allocStep) *Engine {
	t.Helper()
	var origin, target *Engine
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, opts)
		if p.Rank() == 0 {
			target = e
			tm, _ := e.ExposeNew(pinBytes)
			p.Send(1, 0, tm.Encode())
			for _, step := range steps {
				step.install(e)
				p.Barrier() // installed here before the origin measures
				p.Barrier() // origin done measuring
			}
			return
		}
		origin = e
		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		c := &pinCtx{t: t, e: e, comm: p.Comm(), tm: tm,
			src: p.Alloc(pinBytes), dst: p.Alloc(pinBytes)}
		for i, step := range steps {
			step.install(e)
			p.Barrier()
			c.target = target
			for _, row := range allocTable {
				if row.opts != opts {
					continue
				}
				run := func() { row.op(c) }
				run() // warm free lists and lazy state before measuring
				got := testing.AllocsPerRun(50, run)
				if i == 0 {
					t.Logf("%-30s %2.0f allocs/op", row.name, got)
				}
				if got != row.want {
					t.Errorf("%s with %s costs %v allocs/op, want exactly %v", row.name, step.name, got, row.want)
				}
			}
			p.Barrier()
		}
	})
	return origin
}

// TestPutHotPathNoAllocsWhenDisabled pins the allocation cost of every
// primitive against the event rings: with nothing installed each costs its
// committed number, and installing the metrics registry, the protocol
// tracer, the flight recorder, or all of them costs exactly nothing more —
// every event is a fixed-size record written into a preallocated ring.
func TestPutHotPathNoAllocsWhenDisabled(t *testing.T) {
	for _, opts := range []Options{pinThread, pinCoarse, pinBatched} {
		e := pinAllocs(t, opts, []allocStep{
			{"nothing installed", func(*Engine) {}},
			{"metrics + tracer", func(e *Engine) { e.EnableTelemetry(nil); e.SetTracer(trace.New(0)) }},
			{"flight recorder alone", func(e *Engine) {
				e.SetTracer(nil)
				e.EnableFlightRecorder(telemetry.FlightConfig{Dir: t.TempDir()})
			}},
			{"metrics + tracer + flight recorder", func(e *Engine) { e.SetTracer(trace.New(0)) }},
		})
		if n := len(e.Tracer().Snapshot()); n == 0 {
			t.Error("the tracer recorded nothing: the traced steps measured a disabled path")
		}
		if pm := e.FlightRecorder().Postmortem("probe", 0); pm.Recorded == 0 {
			t.Error("the flight recorder recorded nothing: its steps measured a disabled path")
		}
	}
}
