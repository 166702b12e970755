package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mpi3rma/internal/trace"
)

// The flight recorder keeps a bounded ring of the most recent
// noteworthy runtime events (deliveries, confirms, retransmissions,
// faults) so that when something goes wrong — a link exhausts its retry
// budget, an apply panics — the postmortem names what happened in the
// moments before, not just the final error. The ring is a trace.Ring of
// the flight kinds (trace.ToFlight): the engine emits into Ring(), which is
// nil on a nil *FlightRecorder, so the disabled path is a single pointer
// check and neither path allocates (pinned by an AllocsPerRun test).

// FlightConfig sizes and places a recorder.
type FlightConfig struct {
	// Rank stamps the recorder's postmortems.
	Rank int
	// Cap bounds the event ring; 0 means DefaultFlightCap.
	Cap int
	// Dir receives auto-dumped postmortem files; empty means
	// os.TempDir().
	Dir string
}

// DefaultFlightCap is the default ring capacity.
const DefaultFlightCap = 256

// LinkHealth is one peer link's relay state at snapshot time.
type LinkHealth struct {
	Peer     int  `json:"peer"`
	Down     bool `json:"down"`
	Inflight int  `json:"inflight"`
	// Attempts is the worst per-frame attempt count currently in flight.
	Attempts int `json:"attempts"`
}

// ShardHealth is one apply shard's lifetime task count.
type ShardHealth struct {
	Shard int   `json:"shard"`
	Tasks int64 `json:"tasks"`
}

// RankDeathInfo names one confirmed rank death and the recovery that
// followed: who died, which buddy held the replicas, which spare they
// were replayed onto, and the version range of the replay. Recorded by
// the promoting buddy before its postmortem dump so the dump file names
// the whole promotion, not just the failure.
type RankDeathInfo struct {
	// Dead is the rank the membership service confirmed dead.
	Dead int `json:"dead"`
	// Buddy is the rank that held the dead rank's replicas and promoted
	// them (the rank writing this report).
	Buddy int `json:"buddy"`
	// Spare is the standby rank the replicas were replayed onto (-1 when
	// the spare pool was exhausted and no rebuild could start).
	Spare int `json:"spare"`
	// Regions is the number of replicated regions replayed.
	Regions int `json:"regions"`
	// FromVersion..ToVersion is the replayed version range: replicas
	// start at version 1 (the initial expose snapshot) and ToVersion is
	// the highest replicated version across the replayed regions.
	FromVersion uint64 `json:"from_version"`
	ToVersion   uint64 `json:"to_version"`
}

// HealthReport is one rank's point-in-time health: what rmatop renders
// and what postmortems embed. Producers fill only what they have; nil
// slices simply mean "subsystem not enabled".
type HealthReport struct {
	Rank  int   `json:"rank"`
	VTime int64 `json:"vtime"`
	// Liveness is this rank's view of every rank's membership state
	// ("ALIVE", "SUSPECT", "DEAD", "REBUILDING", "SPARE"), indexed by
	// world rank. Empty outside fault-injected worlds.
	Liveness []string `json:"liveness,omitempty"`
	// Sticky lists sticky engine errors (rank deaths, link failures,
	// apply faults).
	Sticky []string `json:"sticky,omitempty"`
	// Waits lists what this rank's blocked calls (and the completion
	// probes parked here) are waiting for, one entry per registered
	// counter waiter: on a wedge, what is stuck and how far it got.
	Waits []WaitHealth `json:"waits,omitempty"`
	// RetryBudget is the per-frame retry budget links are allowed
	// before being declared failed (0 when reliability is off).
	RetryBudget int           `json:"retry_budget,omitempty"`
	Links       []LinkHealth  `json:"links,omitempty"`
	Shards      []ShardHealth `json:"shards,omitempty"`
	// AppliedFrom counts applied ops per origin rank (watermarks).
	AppliedFrom map[int]int64 `json:"applied_from,omitempty"`
}

// WaitHealth is one registered counter waiter: a call of this rank
// blocked until Peer's "confirmed" (origin-side) or "applied" (target-side)
// count reaches Threshold, or — "probe" — Peer's completion probe parked
// here until this rank has applied Threshold of its operations. Have is
// the count when the report was taken.
type WaitHealth struct {
	Peer      int    `json:"peer"`
	Counter   string `json:"counter"`
	Threshold int64  `json:"threshold"`
	Have      int64  `json:"have"`
}

// Postmortem is the dump format: the reason, the recent-event ring in
// chronological order, the rank's health snapshot, and the metric
// deltas accumulated since the recorder was armed.
type Postmortem struct {
	Reason string `json:"reason"`
	Rank   int    `json:"rank"`
	At     int64  `json:"at"`
	// Recorded is the lifetime number of events; len(Events) is bounded
	// by the ring capacity, so Recorded-len(Events) events were evicted.
	Recorded uint64 `json:"recorded"`
	// Events are in the encoding trace sidecars use (trace.RankEvent),
	// every one stamped with this rank.
	Events []trace.RankEvent `json:"events"`
	// RankDeath, when set, names the death and replica promotion this
	// dump covers: the dead rank, the buddy that promoted, the spare
	// rebuilt onto, and the replayed version range.
	RankDeath    *RankDeathInfo   `json:"rank_death,omitempty"`
	Health       *HealthReport    `json:"health,omitempty"`
	MetricDeltas map[string]int64 `json:"metric_deltas,omitempty"`
}

// FlightRecorder is the event ring plus what turns it into a postmortem:
// the health callback, the metric baseline, the dump directory and the
// once-only auto-dump latch. The zero value is not usable; construct with
// NewFlightRecorder. A nil *FlightRecorder is valid and discards
// everything.
type FlightRecorder struct {
	rank int
	dir  string
	ring *trace.Ring

	mu     sync.Mutex
	health func() HealthReport
	reg    *Registry
	base   Snapshot
	dumps  []string
	auto   bool
	death  *RankDeathInfo
}

// NewFlightRecorder builds a recorder with its ring preallocated.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultFlightCap
	}
	if cfg.Dir == "" {
		cfg.Dir = os.TempDir()
	}
	return &FlightRecorder{
		rank: cfg.Rank,
		dir:  cfg.Dir,
		ring: trace.New(cfg.Cap),
	}
}

// Ring returns the event ring the owning engine emits into; nil (a valid
// discarding ring) on a nil recorder.
func (f *FlightRecorder) Ring() *trace.Ring {
	if f == nil {
		return nil
	}
	return f.ring
}

// SetHealth installs the callback that snapshots the owning rank's
// health at dump time.
func (f *FlightRecorder) SetHealth(fn func() HealthReport) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.health = fn
	f.mu.Unlock()
}

// SetBaseline arms metric-delta tracking: postmortems report each
// counter's movement since this call.
func (f *FlightRecorder) SetBaseline(reg *Registry) {
	if f == nil || reg == nil {
		return
	}
	snap := reg.Snapshot()
	f.mu.Lock()
	f.reg = reg
	f.base = snap
	f.mu.Unlock()
}

// SetRankDeath records the death-and-promotion report embedded in every
// later postmortem. The first report wins (later deaths on the same rank
// are cascades of the first, like AutoDump's policy).
func (f *FlightRecorder) SetRankDeath(info RankDeathInfo) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.death == nil {
		f.death = &info
	}
	f.mu.Unlock()
}

// Postmortem assembles a dump without writing it anywhere.
func (f *FlightRecorder) Postmortem(reason string, at int64) *Postmortem {
	if f == nil {
		return nil
	}
	held := f.ring.Snapshot()
	pm := &Postmortem{
		Reason:   reason,
		Rank:     f.rank,
		At:       at,
		Recorded: uint64(len(held)) + uint64(f.ring.Dropped()),
		Events:   trace.MergeRanks(map[int][]trace.Event{f.rank: held}),
	}
	f.mu.Lock()
	if f.death != nil {
		d := *f.death
		pm.RankDeath = &d
	}
	health := f.health
	reg, base := f.reg, f.base
	f.mu.Unlock()

	if health != nil {
		h := health()
		pm.Health = &h
	}
	if reg != nil {
		cur := reg.Snapshot()
		deltas := make(map[string]int64)
		for name, v := range cur.Counters {
			if d := v - base.Counters[name]; d != 0 {
				deltas[name] = d
			}
		}
		if len(deltas) > 0 {
			pm.MetricDeltas = deltas
		}
	}
	return pm
}

// WritePostmortem writes the dump as indented JSON.
func (f *FlightRecorder) WritePostmortem(w io.Writer, reason string, at int64) error {
	pm := f.Postmortem(reason, at)
	if pm == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pm)
}

// DumpFile writes a postmortem into the recorder's directory and
// returns the path. File names are deterministic per (rank, reason,
// dump ordinal) so repeated dumps never clobber each other.
func (f *FlightRecorder) DumpFile(reason string, at int64) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	ordinal := len(f.dumps)
	dir := f.dir
	f.mu.Unlock()
	name := fmt.Sprintf("flight-rank%d-%s-%d.json", f.rank, sanitizeReason(reason), ordinal)
	path := filepath.Join(dir, name)
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := f.WritePostmortem(file, reason, at); err != nil {
		file.Close()
		return "", err
	}
	if err := file.Close(); err != nil {
		return "", err
	}
	f.mu.Lock()
	f.dumps = append(f.dumps, path)
	f.mu.Unlock()
	return path, nil
}

// AutoDump writes at most one fault-triggered postmortem per recorder
// (later faults on the same rank are usually cascades of the first).
// Best effort: dump errors are reported on stderr, never propagated
// into the failing hot path.
func (f *FlightRecorder) AutoDump(reason string, at int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	first := !f.auto
	f.auto = true
	f.mu.Unlock()
	if !first {
		return
	}
	if path, err := f.DumpFile(reason, at); err != nil {
		fmt.Fprintf(os.Stderr, "flight recorder: postmortem dump failed: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "flight recorder: postmortem written to %s\n", path)
	}
}

// Dumps lists the postmortem files written so far.
func (f *FlightRecorder) Dumps() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.dumps...)
}

// sanitizeReason keeps dump file names shell-friendly.
func sanitizeReason(reason string) string {
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "dump"
	}
	return string(out)
}
