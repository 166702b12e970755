// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figure 2) and the ablation experiments E3–E15 catalogued in
// DESIGN.md. Each experiment builds fresh simulated worlds, drives the
// RMA layers through the same workloads the paper describes, and reports
// one clock per data point: modelled virtual time from the LogGP cost
// model, in microseconds. Host cost per operation is measured by the
// repository benchmark (benchmark/), not here.
//
// Fig. 1 / E6, E7 and E9 drive one origin against one target on an
// ordered network; their modelled times and counts repeat exactly and
// testdata/exact.csv pins them. Cells with several concurrent origins,
// and E11's unordered network, follow host scheduling (which message
// reaches the target first), so their claims are checked as PASS/FAIL
// shape notes instead.
package bench

import (
	"fmt"
	"strings"
	"sync"

	"mpi3rma/internal/vtime"
)

// Row is one data point of an experiment.
type Row struct {
	// Series names the configuration (figure legend entry).
	Series string
	// Size is the per-operation payload in bytes (0 when not applicable).
	Size int
	// ModelUS is the modelled virtual time in microseconds.
	ModelUS float64
	// Extra carries experiment-specific columns (message counts, lock
	// grants, cache invalidations), keyed by column name.
	Extra map[string]float64
}

// Result is a complete experiment outcome.
type Result struct {
	// Name is the experiment id ("fig2", "e3", ...).
	Name string
	// Title is the human-readable description.
	Title string
	// SeriesOrder lists series names in legend order.
	SeriesOrder []string
	// Rows holds every data point.
	Rows []Row
	// Notes carries free-form observations (counter dumps, shape checks).
	Notes []string
	// Telemetry is the machine-readable sidecar, populated when harness
	// telemetry is on (SetTelemetry / rmabench -metrics).
	Telemetry *TelemetrySummary
}

// Add appends a data point.
func (r *Result) Add(row Row) { r.Rows = append(r.Rows, row) }

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Check appends a shape-claim note, "PASS: ..." when ok and "FAIL: ..."
// otherwise.
func (r *Result) Check(ok bool, format string, args ...any) {
	status := "PASS: "
	if !ok {
		status = "FAIL: "
	}
	r.Notef(status+format, args...)
}

// Failures returns the notes reporting a failed claim or verification.
func (r *Result) Failures() []string {
	var out []string
	for _, n := range r.Notes {
		if strings.HasPrefix(n, "FAIL:") {
			out = append(out, n)
		}
	}
	return out
}

// SeriesRows returns the rows of one series in insertion order.
func (r *Result) SeriesRows(series string) []Row {
	var out []Row
	for _, row := range r.Rows {
		if row.Series == series {
			out = append(out, row)
		}
	}
	return out
}

// Fig2Sizes are the payload sizes of the paper's Figure 2 sweep
// (8 bytes to 1 KB).
var Fig2Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024}

// Fig2Origins is the number of concurrently putting processes in Figure 2
// (seven origins, one on each XT5 node, all targeting process 0).
const Fig2Origins = 7

// Fig2Puts is the number of puts each origin performs before the single
// RMA complete.
const Fig2Puts = 100

// measure aggregates per-origin virtual times and reports the maximum —
// the experiment completes when the slowest origin does.
type measure struct {
	mu    sync.Mutex
	model vtime.Time
}

func (m *measure) record(model vtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if model > m.model {
		m.model = model
	}
}

func (m *measure) row(series string, size int) Row {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Row{
		Series:  series,
		Size:    size,
		ModelUS: float64(m.model) / 1e3,
		Extra:   map[string]float64{},
	}
}
