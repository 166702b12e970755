// Command rmatop is the live per-rank ops console: it drives a small
// simulated RMA world (a ring of ranks streaming puts at each other,
// optionally under injected faults) and renders each rank's health on a
// refresh loop — link state from the reliable-delivery relay, retry
// budget remaining, operations applied through the apply shards,
// completion-queue occupancy and drops, and the top critical-path stages
// of the recorded timeline.
//
// Usage:
//
//	rmatop                      # 4 ranks, redraw twice a second, Ctrl-C to quit
//	rmatop -ranks 8 -shards 4   # sharded apply engine, more ranks
//	rmatop -faults              # inject the chaos drop burst: watch
//	                            # retransmissions eat the retry budget
//	rmatop -kill 2              # crash rank 2 mid-run: watch the live
//	                            # column go ALIVE→DEAD, the spare go
//	                            # SPARE→REBUILDING→ALIVE, and the ring
//	                            # re-target the successor
//	rmatop -frames 3 -plain     # finite, scroll-friendly run (CI smoke)
//
// The world is the same stack the benchmarks run — rmatop is a viewer,
// not a simulator of its own.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/telemetry"
	"mpi3rma/internal/trace"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

func main() {
	ranks := flag.Int("ranks", 4, "world size")
	shards := flag.Int("shards", 0, "apply shards per target (0 = serial apply engine)")
	interval := flag.Duration("interval", 500*time.Millisecond, "refresh period")
	frames := flag.Int("frames", 0, "stop after this many frames (0 = run until interrupted)")
	faults := flag.Bool("faults", false, "inject a seeded drop burst on link 1->0 plus background drops, with reliable delivery on")
	kill := flag.Int("kill", -1, "crash this compute rank mid-run: adds one spare, arms buddy replication, and the console shows detect -> rebuild -> re-target live")
	plain := flag.Bool("plain", false, "do not clear the screen between frames (scrollback-friendly)")
	diagDir := flag.String("diagdir", "", "flight-recorder postmortem directory (default: system temp dir)")
	flag.Parse()
	if *ranks < 2 {
		fmt.Fprintln(os.Stderr, "rmatop: need at least 2 ranks")
		os.Exit(2)
	}
	if *kill >= *ranks {
		fmt.Fprintf(os.Stderr, "rmatop: -kill %d is not a compute rank (world has %d)\n", *kill, *ranks)
		os.Exit(2)
	}

	cfg := runtime.Config{Ranks: *ranks, Seed: 42}
	if *faults {
		cfg.Faults = &simnet.FaultPlan{
			Seed:    4242,
			Default: simnet.LinkFaults{Drop: 0.05},
			Bursts: []simnet.Burst{{
				Link:   simnet.LinkKey{Src: 1, Dst: 0},
				Until:  vtime.Time(20 * time.Microsecond),
				Faults: simnet.LinkFaults{Drop: 1},
			}},
		}
	}
	if *kill >= 0 {
		// The kill lands well after exposure and descriptor exchange so
		// the ring is streaming when the rank goes dark; one spare stands
		// by for the rebuild.
		cfg.Spares = 1
		if cfg.Faults == nil {
			cfg.Faults = &simnet.FaultPlan{Seed: 4242}
		}
		cfg.Faults.RankKills = append(cfg.Faults.RankKills,
			simnet.RankKill{Rank: *kill, At: vtime.Time(150 * time.Microsecond)})
	}
	w := runtime.NewWorld(cfg)
	// Each rank publishes its session here once open, so the console
	// goroutine can read its health.
	sessions := make([]atomic.Pointer[rma.Session], w.TotalRanks())

	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *runtime.Proc) { workload(p, &sessions[p.Rank()], *shards, *diagDir, *kill, &stop) })
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	frame := 0
	for running := true; running; {
		select {
		case <-sig:
			running = false
		case <-ticker.C:
			frame++
			render(w, sessions, frame, *plain)
			if *frames > 0 && frame >= *frames {
				running = false
			}
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		fmt.Fprintf(os.Stderr, "rmatop: %v\n", err)
	}
	w.Close()
}

// workload is one rank's traffic generator: stream small puts around the
// ring (rank -> rank+1) with periodic Complete calls, so every subsystem
// rmatop renders — relay, shards, completion queue, critical path — has
// live traffic. With -kill the sessions also replicate, and a writer
// whose downstream neighbor dies awaits the rebuild and re-points the
// same descriptor at the successor spare. The real-time sleep paces the
// loop so the console stays responsive and the simulation does not spin
// a core per rank.
func workload(p *runtime.Proc, publish *atomic.Pointer[rma.Session], shards int, diagDir string, kill int, stop *atomic.Bool) {
	opts := []rma.SessionOption{
		rma.WithMetrics(),
		rma.WithTracing(4096),
		rma.WithEvents(256),
		rma.WithFlightRecorder(diagDir),
	}
	if shards > 1 {
		opts = append(opts, rma.WithApplyShards(shards))
	}
	if kill >= 0 {
		opts = append(opts, rma.WithReplication())
	}
	s := rma.Open(p, opts...)
	publish.Store(s)
	if p.IsSpare() {
		// Parked in the spare pool; after the rebuild the NIC serves
		// the redirected ring traffic, so this goroutine only has to stay
		// alive for the console to render its health.
		for !stop.Load() {
			time.Sleep(10 * time.Millisecond)
		}
		return
	}
	const slot = 64
	tms, local, err := s.ExposeCollective(slot * p.Comm().Size())
	if err != nil {
		return
	}
	next := (p.Rank() + 1) % p.Comm().Size()
	tm := tms[next]
	serving := next
	src := rma.Region{Offset: local.Offset + p.Rank()*slot, Size: slot}
	for !stop.Load() {
		var err error
		for j := 0; j < 8 && err == nil; j++ {
			_, err = s.Put(src, slot, rma.Byte, tm, p.Rank()*slot)
		}
		if err == nil {
			err = s.Complete(serving)
		}
		if err != nil {
			if kill >= 0 && serving == next && errors.Is(err, rma.ErrRankFailed) {
				// Downstream neighbor died: wait out the rebuild, then
				// stream the same descriptor at the successor.
				if spare, rerr := s.AwaitRebuilt(next); rerr == nil {
					tm.Owner = spare
					serving = spare
					continue
				}
			}
			if s.Err() != nil {
				// Sticky (a failed link, or this rank is the victim and its
				// own traffic black-holed): keep the rank alive so its
				// health stays observable, but stop issuing.
				for !stop.Load() {
					time.Sleep(10 * time.Millisecond)
				}
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// render draws one frame: a per-rank health table plus the current top
// critical-path stages of the merged timeline.
func render(w *runtime.World, sessions []atomic.Pointer[rma.Session], frame int, plain bool) {
	var b strings.Builder
	if !plain {
		b.WriteString("\033[H\033[2J")
	}
	if spares := w.TotalRanks() - w.Size(); spares > 0 {
		fmt.Fprintf(&b, "rmatop — frame %d — %d ranks + %d spare\n\n", frame, w.Size(), spares)
	} else {
		fmt.Fprintf(&b, "rmatop — frame %d — %d ranks\n\n", frame, w.Size())
	}
	fmt.Fprintf(&b, "%-5s %-11s %-12s %-22s %-8s %-16s %-14s %s\n",
		"rank", "live", "vtime", "links(peer:state)", "budget", "shard-tasks", "evq(d/c/drop)", "sticky")

	// Liveness is the membership service's view, one state per world rank
	// (spares included), shared by every engine.
	states := w.Members().States()
	perRank := make(map[int][]trace.Event)
	for r := 0; r < w.TotalRanks(); r++ {
		live := "-"
		if r < len(states) {
			live = states[r].String()
		}
		s := sessions[r].Load()
		if s == nil {
			fmt.Fprintf(&b, "%-5d %-11s %s\n", r, live, "(attaching)")
			continue
		}
		h := s.Health()
		links := "-"
		if len(h.Links) > 0 {
			parts := make([]string, 0, len(h.Links))
			for _, l := range h.Links {
				state := "up"
				if l.Down {
					state = "DOWN"
				} else if l.Attempts > 0 {
					state = fmt.Sprintf("retry%d", l.Attempts)
				}
				parts = append(parts, fmt.Sprintf("%d:%s", l.Peer, state))
			}
			links = strings.Join(parts, " ")
		}
		budget := "-"
		if h.RetryBudget > 0 {
			worst := 0
			for _, l := range h.Links {
				if l.Attempts > worst {
					worst = l.Attempts
				}
			}
			budget = fmt.Sprintf("%d/%d", h.RetryBudget-worst, h.RetryBudget)
		}
		shards := "-"
		if len(h.Shards) > 0 {
			var tasks int64
			for _, sh := range h.Shards {
				tasks += sh.Tasks
			}
			shards = fmt.Sprint(tasks)
		}
		evq := "-"
		if h.Queue != nil {
			evq = fmt.Sprintf("%d/%d/%d", h.Queue.Depth, h.Queue.Cap, h.Queue.Dropped)
		}
		sticky := ""
		if len(h.Sticky) > 0 {
			sticky = h.Sticky[0]
			if len(sticky) > 48 {
				sticky = sticky[:48] + "…"
			}
		}
		fmt.Fprintf(&b, "%-5d %-11s %-12d %-22s %-8s %-16s %-14s %s\n",
			r, live, h.VTime, links, budget, shards, evq, sticky)
		// What the rank's blocked calls (and probes parked on it) wait for:
		// peer, counter, how far it got of what it needs.
		if len(h.Waits) > 0 {
			parts := make([]string, 0, len(h.Waits))
			for _, wt := range h.Waits {
				parts = append(parts, fmt.Sprintf("%d:%s %d/%d", wt.Peer, wt.Counter, wt.Have, wt.Threshold))
			}
			fmt.Fprintf(&b, "      waits: %s\n", strings.Join(parts, ", "))
		}
		if ring := s.Tracer(); ring != nil {
			perRank[r] = ring.Snapshot()
		}
	}

	rep := telemetry.AnalyzeCriticalPath(trace.MergeRanks(perRank))
	fmt.Fprintf(&b, "\ncritical path (%d spans, %d reconciled):", rep.Spans, rep.Reconciled)
	top := rep.TopStages(4)
	sort.SliceStable(top, func(i, j int) bool { return top[i].Total > top[j].Total })
	for _, s := range top {
		share := 0.0
		if rep.TotalVTime > 0 {
			share = 100 * float64(s.Total) / float64(rep.TotalVTime)
		}
		fmt.Fprintf(&b, " %s %.0f%%", s.Stage, share)
	}
	b.WriteString("\n")
	os.Stdout.WriteString(b.String())
}
