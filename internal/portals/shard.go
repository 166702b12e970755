package portals

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"mpi3rma/internal/stats"
	"mpi3rma/internal/vtime"
)

// ShardPool drains per-shard task queues with a bounded worker pool. It is
// the target-side half of the sharded apply engine: the NIC rx path (via
// the core layer's routing) hands each decoded operation to one shard, and
// every shard applies its tasks strictly in hand-off order on at most one
// worker at a time. Operations that landed in different shards run in
// parallel; the router above guarantees that any two operations touching a
// common byte land in the same shard (or are ticketed, see ShardTask.After),
// so per-shard FIFO is enough for byte-exact convergence with the serial
// engine.
//
// Worker w's home shards are {w, w+W, w+2W, ...}; a worker with idle home
// shards steals from the others, so a skewed workload still saturates the
// pool. Each worker owns one vtime.WorkLane, and every task's modelled
// apply cost is charged to its shard's HOME worker's lane at submit time —
// submission is serialized (under the NIC's delivery token), so the model
// series is deterministic and independent of host scheduling, while
// stealing remains a wall-clock optimization that never moves virtual
// time. The per-worker lanes are what make the E14 model series improve as
// workers are added.
type ShardPool struct {
	shards  []shardQ
	lanes   []vtime.WorkLane
	workers int
	softCap int

	mu      sync.Mutex
	cond    *sync.Cond
	pending int // tasks queued across all shards
	closed  bool
	wg      sync.WaitGroup

	onPanic atomic.Pointer[func(shard int, recovered any)]

	// Panics counts recovered worker panics (see SetPanicHandler).
	Panics stats.Counter
}

// ShardTask is one unit of target-side apply work.
type ShardTask struct {
	// Ready is the virtual time the operation's inputs are available
	// (delivery completion at the NIC).
	Ready vtime.Time
	// Cost is the modelled apply duration charged to the executing
	// worker's lane.
	Cost vtime.Duration
	// After, when non-nil, is a per-shard enqueue-count ticket (from
	// Snapshot): the task may not run until every shard has completed at
	// least that many tasks. The executing worker helps drain lagging
	// shards while it waits, so tickets cannot deadlock the pool. The
	// router uses this for designated-shard (spanning/ordered) operations
	// that must observe everything routed before them.
	After []int64
	// Run applies the operation; end is the home-lane completion time,
	// fixed at submit.
	Run func(end vtime.Time)

	// end is the modelled completion time, computed against the shard's
	// home worker lane when the task is submitted.
	end vtime.Time
}

// shardQ is one shard's FIFO plus its per-shard telemetry cells.
type shardQ struct {
	q    []ShardTask
	head int
	// busy marks a shard whose head task is executing: a shard is drained
	// by at most one worker at a time, preserving apply order within it.
	busy bool
	enq  int64 // tasks ever queued (guarded by pool mu)
	done atomic.Int64

	stats ShardStats
}

// ShardStats are one shard's telemetry cells, registered by the layer
// above under shard.* metric names.
type ShardStats struct {
	// Depth is the shard's current queue occupancy.
	Depth stats.Gauge
	// Tasks counts tasks this shard has completed.
	Tasks stats.Counter
	// Steals counts tasks of this shard executed by a non-home worker.
	Steals stats.Counter
	// Overflow counts enqueues that found the shard above its soft cap.
	Overflow stats.Counter
	// ApplyLatency observes end-ready per task, in virtual nanoseconds.
	ApplyLatency stats.Histogram
}

// shardSoftCap is the queue depth past which Overflow is counted. Queues
// are unbounded (dropping an apply would break completion counting); the
// counter exists so saturation is visible in telemetry.
const shardSoftCap = 1024

// NewShardPool creates a pool with the given shard and worker counts and
// starts the workers. Workers are capped at the shard count: a shard is
// drained by one worker at a time, so extra workers could never run.
func NewShardPool(shards, workers int) *ShardPool {
	if shards < 1 {
		shards = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	p := &ShardPool{
		shards:  make([]shardQ, shards),
		lanes:   make([]vtime.WorkLane, workers),
		workers: workers,
		softCap: shardSoftCap,
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			// Label shard workers so profiles attribute apply work to the
			// pool (go tool pprof -tagfocus role=shard-worker).
			pprof.Do(context.Background(), pprof.Labels("role", "shard-worker", "worker", strconv.Itoa(w)), func(context.Context) {
				p.worker(w)
			})
		}(w)
	}
	return p
}

// Shards returns the shard count.
func (p *ShardPool) Shards() int { return len(p.shards) }

// Workers returns the worker count.
func (p *ShardPool) Workers() int { return p.workers }

// Stats returns shard s's telemetry cells.
func (p *ShardPool) Stats(s int) *ShardStats { return &p.shards[s].stats }

// SetPanicHandler installs fn, called (once per event, on the worker that
// recovered it) when a task panics. The task's completion bookkeeping
// still runs, so the pool itself stays live.
func (p *ShardPool) SetPanicHandler(fn func(shard int, recovered any)) {
	p.onPanic.Store(&fn)
}

// Snapshot returns the current per-shard enqueue counts, for use as a
// ShardTask.After ticket. Routing is serialized (under the NIC's delivery
// token), so a snapshot taken while routing covers exactly the operations
// routed before the ticketed one.
func (p *ShardPool) Snapshot() []int64 {
	p.mu.Lock()
	out := make([]int64, len(p.shards))
	for i := range p.shards {
		out[i] = p.shards[i].enq
	}
	p.mu.Unlock()
	return out
}

// Submit queues t on shard s, fixing its modelled completion time against
// shard s's home worker lane. After Close the task runs inline on the
// caller so completion signals are never lost during teardown.
func (p *ShardPool) Submit(s int, t ShardTask) {
	p.mu.Lock()
	t.end = p.lanes[s%p.workers].Complete(t.Ready, t.Cost)
	if p.closed {
		p.mu.Unlock()
		p.execute(0, s, t)
		return
	}
	q := &p.shards[s]
	q.q = append(q.q, t)
	q.enq++
	q.stats.Depth.Add(1)
	if len(q.q)-q.head > p.softCap {
		q.stats.Overflow.Inc()
	}
	p.pending++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Close stops the workers after all queued tasks have been applied and
// waits for them to exit. Close is idempotent.
func (p *ShardPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker drains shards until the pool is closed and empty. Home shards
// (s ≡ w mod workers) are preferred; otherwise the worker steals.
func (p *ShardPool) worker(w int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		s := p.pickLocked(w)
		if s < 0 {
			if p.closed && p.pending == 0 {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		t := p.popLocked(s)
		p.mu.Unlock()
		p.execute(w, s, t)
		p.mu.Lock()
		p.shards[s].busy = false
		p.cond.Broadcast()
	}
}

// pickLocked returns an idle shard with queued work, home shards first, or
// -1. Caller holds p.mu.
func (p *ShardPool) pickLocked(w int) int {
	for s := w; s < len(p.shards); s += p.workers {
		if q := &p.shards[s]; !q.busy && q.head < len(q.q) {
			return s
		}
	}
	for s := range p.shards {
		if q := &p.shards[s]; !q.busy && q.head < len(q.q) {
			return s
		}
	}
	return -1
}

// popLocked removes shard s's head task and marks the shard busy. Caller
// holds p.mu and has checked the shard is idle and non-empty.
func (p *ShardPool) popLocked(s int) ShardTask {
	q := &p.shards[s]
	t := q.q[q.head]
	q.q[q.head] = ShardTask{}
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
	q.busy = true
	q.stats.Depth.Add(-1)
	p.pending--
	return t
}

// execute runs one task on worker w: satisfy its ticket (helping drain
// lagging shards), run with panic protection, and record completion. The
// task's modelled end time was fixed at submit.
func (p *ShardPool) execute(w, s int, t ShardTask) {
	if t.After != nil {
		p.drainTo(w, t.After)
	}
	p.runProtected(s, t.Run, t.end)
	q := &p.shards[s]
	q.done.Add(1)
	q.stats.Tasks.Inc()
	if s%p.workers != w {
		q.stats.Steals.Inc()
	}
	q.stats.ApplyLatency.Observe(int64(t.end - t.Ready))
}

// drainTo blocks until every shard's completed count reaches the ticket,
// executing queued tasks from lagging shards itself while it waits.
// Tickets only reference operations routed strictly earlier, so the
// waits-for relation follows routing order and cannot cycle; helping keeps
// a single worker sufficient for progress.
func (p *ShardPool) drainTo(w int, after []int64) {
	p.mu.Lock()
	for {
		lag := -1
		satisfied := true
		for s := range p.shards {
			if s >= len(after) {
				break
			}
			if p.shards[s].done.Load() >= after[s] {
				continue
			}
			satisfied = false
			if q := &p.shards[s]; !q.busy && q.head < len(q.q) {
				lag = s
				break
			}
		}
		if satisfied {
			p.mu.Unlock()
			return
		}
		if lag < 0 {
			// The missing tasks are in flight on other workers; their
			// completion broadcasts.
			p.cond.Wait()
			continue
		}
		t := p.popLocked(lag)
		p.mu.Unlock()
		p.execute(w, lag, t)
		p.mu.Lock()
		p.shards[lag].busy = false
		p.cond.Broadcast()
	}
}

// runProtected runs fn(end), converting a panic into the pool's panic
// handler instead of crashing the process.
func (p *ShardPool) runProtected(s int, fn func(vtime.Time), end vtime.Time) {
	defer func() {
		if r := recover(); r != nil {
			p.Panics.Inc()
			if h := p.onPanic.Load(); h != nil {
				(*h)(s, r)
			}
		}
	}()
	fn(end)
}
