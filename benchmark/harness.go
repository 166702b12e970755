package main

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

// A workload is one or more persistent worlds. Each world runs perRank once
// on every rank; perRank sets the rank up and then calls rank.phase for each
// measured phase, so a workload reads as the straight-line program a user of
// the library would write.
type workload struct {
	name   string
	why    string
	worlds []worldSpec
}

type worldSpec struct {
	ranks   int
	issuers []int // ranks that issue calls, each in closed loop
	opRanks int   // issuing ranks whose calls are the logical ops; 0 means all
	opts    []rma.SessionOption
	phases  int // measured phases perRank runs, to split the time budget
	perRank func(c *rank)
}

// passOpts selects how one pass over a workload runs.
type passOpts struct {
	seed    int64
	seconds float64 // measured time over all phases; 0 runs set-up and warm-up only
	traced  bool    // WithMetrics + WithTracing on every rank, wall spans around every call
	scale   float64 // multiplies every op count; 1 outside tests
	extra   []rma.SessionOption
	spanCap int // spans kept per rank for spans.json; 0 keeps none
}

// maxRounds bounds the measured rounds of one phase.
const maxRounds = 4096

// phaseResult is what one measured phase leaves behind.
type phaseResult struct {
	name    string
	n       int       // calls per issuing rank per round
	opRanks int       // issuing ranks whose calls are the logical ops
	wall    []float64 // seconds per measured round, rank 0, barrier to barrier
	memMB   []float64 // memory mapped and not released, sampled by rank 0 after each round
	adv     [][]int64 // [issuer][round] virtual ns that rank advanced in the round

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNS           uint64
	cpu                 time.Duration

	mu       sync.Mutex
	counters map[string]int64 // deltas of program counters over the measured rounds
}

// newPhaseResult allocates every per-round slice at its full capacity, so
// that recording a round allocates nothing.
func newPhaseResult(name string, n int, spec *worldSpec) *phaseResult {
	ph := &phaseResult{
		name:     name,
		n:        n,
		opRanks:  spec.opRanks,
		wall:     make([]float64, 0, maxRounds),
		memMB:    make([]float64, 0, maxRounds),
		adv:      make([][]int64, len(spec.issuers)),
		counters: make(map[string]int64),
	}
	if ph.opRanks == 0 {
		ph.opRanks = len(spec.issuers)
	}
	for i := range ph.adv {
		ph.adv[i] = make([]int64, 0, maxRounds)
	}
	return ph
}

func (ph *phaseResult) ops() int64 { return int64(ph.n) * int64(ph.opRanks) * int64(len(ph.wall)) }

// fastest is the share of a phase's rounds whose mean rate is ops_per_s.
const fastest = 0.1

// rate is the mean rate of the fastest tenth of the measured rounds. What
// slows a round on a shared host — a neighbour, the hypervisor, another
// process — only ever slows it, and by amounts that moved the median of the
// rounds by a quarter from one run to the next (README, "Steadiness"); the
// fastest rounds are the ones the host left alone, and they repeat.
func (ph *phaseResult) rate() float64 {
	r := ph.rates()
	sort.Sort(sort.Reverse(sort.Float64Slice(r)))
	k := int(fastest * float64(len(r)))
	if k < 1 {
		k = 1
	}
	var sum float64
	for _, v := range r[:k] {
		sum += v
	}
	return sum / float64(k)
}

// rates returns the logical ops per second of each measured round.
func (ph *phaseResult) rates() []float64 {
	out := make([]float64, len(ph.wall))
	for i, w := range ph.wall {
		out[i] = float64(ph.n*ph.opRanks) / w
	}
	return out
}

// modelPerOp returns, per measured round, the slowest issuing rank's virtual
// time advance divided by the ops that rank issued.
func (ph *phaseResult) modelPerOp() []float64 {
	out := make([]float64, len(ph.wall))
	for r := range out {
		var slowest int64
		for _, a := range ph.adv {
			if a[r] > slowest {
				slowest = a[r]
			}
		}
		out[r] = float64(slowest) / float64(ph.n)
	}
	return out
}

// passResult is everything one pass measured.
type passResult struct {
	setupS   float64
	phases   []*phaseResult
	model    *recorder // virtual ns around each logical op, all issuing ranks
	checks   int64     // verification comparisons made
	failed   int64     // calls that returned an error plus outputs that failed verification
	verified bool      // every world's verification ran to the end

	// traced passes only
	wall, vt        [numKinds]*recorder
	inCalls, inLoop time.Duration
	crit            []*telemetry.CriticalPathReport
	spans           []span
}

func (r *passResult) counter(name string) float64 {
	var v int64
	for _, ph := range r.phases {
		v += ph.counters[name]
	}
	return float64(v)
}

func (r *passResult) phase(name string) *phaseResult {
	for _, ph := range r.phases {
		if ph.name == name {
			return ph
		}
	}
	return nil
}

// worldRun is the state the ranks of one world share during a pass.
type worldRun struct {
	spec   *worldSpec
	o      *passOpts
	res    *passResult
	world  *runtime.World
	ranks  []*rank
	start  time.Time
	budget time.Duration // measured time per phase

	cur      *phaseResult // published by rank 0 before a barrier
	setupSet bool
	stop     atomic.Bool
}

// rank is one rank's handle on the harness.
type rank struct {
	w      *worldRun
	p      *runtime.Proc
	s      *rma.Session
	id     int
	issuer int // index among the issuing ranks, -1 on the others
	rng    *rand.Rand

	measuring bool
	model     *recorder
	checks    int64
	failed    int64
	verified  bool
	snap      func(add func(name string, v int64)) // workload-owned counters
	out       any                                  // hand-off to the verifying rank

	// traced passes only
	wall, vt        [numKinds]*recorder
	inCalls, inLoop time.Duration
	spans           []span
	round           int32 // span id of the current round
}

// stamp is the start of a timed call on both clocks; wall is zero in plain
// passes, which read no wall clock inside the loop.
type stamp struct {
	vt   vtime.Time
	wall time.Time
}

func (c *rank) begin() stamp {
	if c.w.o.traced {
		return stamp{c.p.Now(), time.Now()}
	}
	return stamp{vt: c.p.Now()}
}

// end closes a call that is one logical operation.
func (c *rank) end(k callKind, t stamp, err error) {
	if err != nil {
		c.failed++
	}
	if !c.measuring {
		return
	}
	now := c.p.Now()
	c.model.add(int64(now - t.vt))
	if c.w.o.traced {
		c.traceCall(k, t, now)
	}
}

// aux closes a call that is not a logical operation (Complete, Barrier).
func (c *rank) aux(k callKind, t stamp, err error) {
	if err != nil {
		c.failed++
	}
	if c.measuring && c.w.o.traced {
		c.traceCall(k, t, c.p.Now())
	}
}

// check counts one verification comparison.
func (c *rank) check(ok bool) {
	c.checks++
	if !ok {
		c.failed++
	}
}

func (c *rank) barrier() {
	t := c.begin()
	c.p.Barrier()
	c.aux(kBarrier, t, nil)
}

func (c *rank) complete(target int) {
	t := c.begin()
	err := c.s.Complete(target)
	c.aux(kComplete, t, err)
}

// peer returns another rank's harness handle. Fields a rank wrote before a
// barrier may be read through it after that barrier.
func (c *rank) peer(id int) *rank { return c.w.ranks[id] }

// scaled applies the pass's op-count scale.
func (c *rank) scaled(n int) int {
	if n = int(float64(n) * c.w.o.scale); n < 1 {
		n = 1
	}
	return n
}

// snapshot adds (sign = -1 at the start of the measured rounds, +1 at their
// end) this rank's program counters to the phase.
func (c *rank) snapshot(ph *phaseResult, sign int64) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	add := func(name string, v int64) { ph.counters[name] += sign * v }
	e := c.s.Engine()
	add("core.ops_issued", e.OpsIssued.Value())
	add("core.ops_applied", e.OpsApplied.Value())
	add("core.acks_sent", e.AcksSent.Value())
	add("core.probes", e.Probes.Value())
	add("core.fast_paths", e.FastPaths.Value())
	add("core.complete_calls", e.CompleteCalls.Value())
	grants, contended := e.LockStats()
	add("serializer.lock_grants", grants)
	add("serializer.lock_contended", contended)
	if c.id == 0 {
		add("simnet.msgs", c.w.world.Net().Msgs.Value())
		add("simnet.bytes", c.w.world.Net().Bytes.Value())
	}
	if c.snap != nil {
		c.snap(add)
	}
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

// mappedMB is the memory the Go runtime holds from the operating system
// right now: everything mapped less what it has released. Reading it stops
// nothing and allocates nothing.
func mappedMB() float64 {
	metrics.Read(memSamples)
	return float64(memSamples[0].Value.Uint64()-memSamples[1].Value.Uint64()) / 1e6
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase runs one warm-up round and then measured rounds of n logical ops per
// issuing rank until the phase's time budget is spent. Every rank of the
// world calls it with the same name and n; round runs on the issuing ranks
// only and must leave nothing in flight when it returns. Rounds are
// delimited by barriers; rank 0 takes the wall clock.
func (c *rank) phase(name string, n int, round func(n int)) {
	w := c.w
	n = c.scaled(n)
	if c.issuer < 0 {
		round = nil
	}
	if c.id == 0 {
		w.cur = newPhaseResult(name, n, w.spec)
		w.stop.Store(false)
	}
	c.barrier()
	ph := w.cur
	if round != nil {
		round(n) // warm-up
	}
	c.barrier()
	if c.id == 0 {
		gort.GC()
		if !w.setupSet {
			w.setupSet = true
			w.res.setupS += time.Since(w.start).Seconds()
		}
	}
	if w.o.seconds == 0 {
		return
	}
	if c.id == 0 {
		w.res.phases = append(w.res.phases, ph)
	}
	c.barrier()
	c.snapshot(ph, -1)
	var m0, m1 gort.MemStats
	var cpu0 time.Duration
	var began, prev time.Time
	if c.id == 0 {
		gort.ReadMemStats(&m0)
		cpu0 = cpuTime()
		began = time.Now()
		prev = began
	}
	c.barrier()
	c.measuring = true
	for {
		if w.o.traced {
			c.beginRound()
		}
		loop := c.begin()
		if round != nil {
			round(n)
			ph.adv[c.issuer] = append(ph.adv[c.issuer], int64(c.p.Now()-loop.vt))
		}
		if w.o.traced {
			c.endRound(loop, round != nil)
		}
		c.barrier()
		if c.id == 0 {
			now := time.Now()
			ph.wall = append(ph.wall, now.Sub(prev).Seconds())
			ph.memMB = append(ph.memMB, mappedMB())
			prev = now
			w.stop.Store(now.Sub(began) >= w.budget || len(ph.wall) == maxRounds)
		}
		c.barrier()
		if w.stop.Load() {
			break
		}
	}
	c.measuring = false
	if c.id == 0 {
		gort.ReadMemStats(&m1)
		ph.cpu = cpuTime() - cpu0
		ph.mallocs = m1.Mallocs - m0.Mallocs
		ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		ph.gcCycles = m1.NumGC - m0.NumGC
		ph.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	}
	c.snapshot(ph, +1)
	c.barrier()
}

// verify runs fn after the last phase, when every rank is quiescent. It is
// skipped in set-up-only passes.
func (c *rank) verify(fn func()) {
	if c.w.o.seconds == 0 {
		return
	}
	c.barrier()
	fn()
	c.verified = true
	c.barrier()
}

// runPass builds each world of wl, runs it to the end and tears it down.
func runPass(wl *workload, o passOpts) (*passResult, error) {
	res := &passResult{model: newRecorder(), verified: true}
	phases := 0
	for i := range wl.worlds {
		phases += wl.worlds[i].phases
	}
	for i := range wl.worlds {
		if err := runWorld(&wl.worlds[i], &o, res, phases); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		// The next world, or the next pass, must not find this one's
		// rank memories still on the heap.
		gort.GC()
	}
	return res, nil
}

func runWorld(spec *worldSpec, o *passOpts, res *passResult, phases int) error {
	w := &worldRun{
		spec:   spec,
		o:      o,
		res:    res,
		ranks:  make([]*rank, spec.ranks),
		start:  time.Now(),
		budget: time.Duration(o.seconds / float64(phases) * float64(time.Second)),
	}
	w.world = runtime.NewWorld(runtime.Config{Ranks: spec.ranks, Seed: o.seed})

	opts := append(append([]rma.SessionOption(nil), spec.opts...), o.extra...)
	if o.traced {
		opts = append(opts, rma.WithMetrics(), rma.WithTracing(1<<16))
	}
	for id := range w.ranks {
		c := &rank{
			w:      w,
			id:     id,
			issuer: -1,
			rng:    rand.New(rand.NewSource(o.seed*1_000_003 + int64(id))),
			model:  newRecorder(),
		}
		for i, r := range spec.issuers {
			if r == id {
				c.issuer = i
			}
		}
		if o.traced {
			c.initTrace(o.spanCap)
		}
		w.ranks[id] = c
	}
	err := w.world.Run(func(p *runtime.Proc) {
		c := w.ranks[p.Rank()]
		c.p = p
		c.s = rma.Open(p, opts...)
		spec.perRank(c)
		if o.traced && o.seconds > 0 {
			// Rank 0 reads every rank's trace ring; the others wait.
			c.barrier()
			if c.id == 0 {
				rep, err := c.s.CriticalPath()
				if err != nil {
					panic(err)
				}
				res.crit = append(res.crit, rep)
			}
			c.barrier()
		}
	})
	if err != nil {
		// A rank panicked and the others are stuck in a barrier: closing
		// the world could wait on them for ever, and the process is about
		// to exit.
		return err
	}
	w.world.Close()
	for _, c := range w.ranks {
		res.model.merge(c.model)
		res.checks += c.checks
		res.failed += c.failed
		res.verified = res.verified && c.verified
		if o.traced {
			res.mergeTrace(c)
		}
	}
	return nil
}
