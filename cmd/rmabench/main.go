// Command rmabench regenerates the paper's evaluation in modelled
// virtual time. It exits 1 when any experiment reports a FAIL: note (a
// shape claim or a verification that did not hold).
//
// Usage:
//
//	rmabench                 # run every experiment, print tables
//	rmabench -exp fig2       # one experiment
//	rmabench -exp fig2 -csv  # CSV to stdout (for plotting)
//	rmabench -exp fig1,e7,e9 -csv > internal/bench/testdata/exact.csv
//	                         # regenerate the exact gate's golden file
//	rmabench -exp e13 -metrics -trace e13-trace.json
//	                         # telemetry sidecars: metrics JSON on stdout,
//	                         # merged protocol timeline + spans to a file
//	rmabench -exp e13 -critpath e13-critpath.json
//	                         # critical-path sidecar: per-stage latency
//	                         # decomposition of the recorded timeline
//	rmabench -exp e13 -profile cpu,heap,mutex,block -profiledir /tmp
//	                         # labeled pprof sidecars alongside the run
//	rmabench -exp e14        # sharded target apply scaling (workers x
//	                         # payload on the Fig. 2 7-writer workload)
//	rmabench -exp chaos      # seeded fault-matrix chaos run: byte-exact
//	                         # convergence under drops, duplicates,
//	                         # delays and corruption
//	rmabench -list           # list experiment ids and their aliases
//
// Experiment ids and what they reproduce are catalogued in DESIGN.md; the
// measured-vs-paper comparison lives in EXPERIMENTS.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"runtime/pprof"
	"strings"

	"mpi3rma/internal/bench"
	"mpi3rma/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run (see -list), or 'all'")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	plot := flag.Bool("plot", false, "append an ASCII summary plot per experiment")
	metrics := flag.Bool("metrics", false, "collect telemetry and print each experiment's metrics snapshot as JSON")
	traceOut := flag.String("trace", "", "collect telemetry and write the merged trace timeline + spans JSON to this file")
	critOut := flag.String("critpath", "", "collect telemetry and write the critical-path stage breakdown JSON to this file")
	profile := flag.String("profile", "", "comma list of pprof profiles to capture across the run: cpu,heap,mutex,block (sidecar files, see -profiledir)")
	profileDir := flag.String("profiledir", ".", "directory receiving the pprof sidecar files")
	list := flag.Bool("list", false, "list experiment ids (and their aliases) and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			if len(e.Aliases) > 0 {
				fmt.Printf("%s (alias %s)\n", e.ID, strings.Join(e.Aliases, ", "))
			} else {
				fmt.Println(e.ID)
			}
		}
		return
	}
	if *metrics || *traceOut != "" || *critOut != "" {
		bench.SetTelemetry(true)
	}
	stopProfiles := func() {}
	if *profile != "" {
		stopProfiles = startProfiles(*profile, *profileDir)
	}

	var results []bench.Result
	if *exp == "all" {
		for _, e := range bench.Experiments {
			if e.InAll {
				results = append(results, e.Run())
			}
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, ok := bench.Lookup(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "rmabench: unknown experiment %q (try -list)\n", name)
				os.Exit(2)
			}
			results = append(results, e.Run())
		}
	}
	failed := false
	for _, res := range results {
		if *csv {
			bench.WriteCSV(os.Stdout, res)
		} else {
			bench.WriteTable(os.Stdout, res)
			if *plot {
				bench.WritePlot(os.Stdout, res)
			}
		}
		if *metrics {
			emitMetrics(res)
		}
		if *traceOut != "" {
			writeTrace(res, *traceOut, len(results) > 1)
		}
		if *critOut != "" {
			writeCritPath(res, *critOut, len(results) > 1)
		}
		for _, n := range res.Failures() {
			fmt.Fprintf(os.Stderr, "rmabench: %s: %s\n", res.Name, n)
			failed = true
		}
	}
	stopProfiles()
	if failed {
		os.Exit(1)
	}
}

// writeCritPath writes one experiment's critical-path sidecar: the
// per-stage latency decomposition of the recorded cross-rank timeline.
// Like the trace sidecar it is validated by re-parsing before it lands
// on disk, and with several experiments in one invocation the experiment
// id is inserted before the file extension. The decomposition is a gate,
// not a printout: a span whose stages do not sum to its end-to-end time,
// or time charged to the catch-all stage (an event kind that lost its
// stage mapping), exits non-zero after the sidecar is written.
func writeCritPath(res bench.Result, path string, multi bool) {
	if multi {
		if i := strings.LastIndex(path, "."); i > 0 {
			path = path[:i] + "-" + res.Name + path[i:]
		} else {
			path = path + "-" + res.Name
		}
	}
	var buf bytes.Buffer
	if err := res.WriteCritPathJSON(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "rmabench: critical-path export for %s: %v\n", res.Name, err)
		os.Exit(1)
	}
	var check map[string]any
	if err := json.Unmarshal(buf.Bytes(), &check); err != nil {
		fmt.Fprintf(os.Stderr, "rmabench: critical-path JSON for %s does not parse: %v\n", res.Name, err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rmabench: %v\n", err)
		os.Exit(1)
	}
	rep := res.CriticalPath()
	fmt.Printf("critical-path sidecar written to %s (%d spans, %d reconciled, %d mismatched)\n",
		path, rep.Spans, rep.Reconciled, rep.Mismatched)
	if rep.Mismatched > 0 {
		fmt.Fprintf(os.Stderr, "rmabench: %s: %d of %d spans do not reconcile with their end-to-end time\n", res.Name, rep.Mismatched, rep.Spans)
		os.Exit(1)
	}
	if other := rep.Stage(telemetry.StageOther); other != nil {
		fmt.Fprintf(os.Stderr, "rmabench: %s: %d spans charge %d ns to the %q stage: an event kind has no critical-path stage\n", res.Name, other.Spans, other.Total, telemetry.StageOther)
		os.Exit(1)
	}
}

// startProfiles begins the requested pprof captures and returns the stop
// function that writes the sidecar files. CPU samples stream for the
// whole run; heap/mutex/block are written at stop. The labels the runtime
// puts on each rank goroutine (rank=N, role=rank) make the captures
// attributable: go tool pprof -tagfocus rank=0 <file>. A handler's samples
// carry the labels of the rank goroutine that ran it.
func startProfiles(kinds, dir string) func() {
	var stops []func()
	create := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmabench: %v\n", err)
			os.Exit(1)
		}
		return f
	}
	note := func(f *os.File) {
		fmt.Fprintf(os.Stderr, "pprof sidecar written to %s\n", f.Name())
	}
	for _, kind := range strings.Split(kinds, ",") {
		switch strings.TrimSpace(kind) {
		case "cpu":
			f := create("rmabench-cpu.pprof")
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rmabench: cpu profile: %v\n", err)
				os.Exit(1)
			}
			stops = append(stops, func() {
				pprof.StopCPUProfile()
				f.Close()
				note(f)
			})
		case "heap":
			stops = append(stops, func() {
				f := create("rmabench-heap.pprof")
				gort.GC() // settle the heap so the profile reflects live data
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "rmabench: heap profile: %v\n", err)
					os.Exit(1)
				}
				f.Close()
				note(f)
			})
		case "mutex":
			gort.SetMutexProfileFraction(5)
			stops = append(stops, func() {
				f := create("rmabench-mutex.pprof")
				if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
					fmt.Fprintf(os.Stderr, "rmabench: mutex profile: %v\n", err)
					os.Exit(1)
				}
				f.Close()
				note(f)
			})
		case "block":
			gort.SetBlockProfileRate(1000)
			stops = append(stops, func() {
				f := create("rmabench-block.pprof")
				if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
					fmt.Fprintf(os.Stderr, "rmabench: block profile: %v\n", err)
					os.Exit(1)
				}
				f.Close()
				note(f)
			})
		case "":
		default:
			fmt.Fprintf(os.Stderr, "rmabench: unknown -profile kind %q (want cpu,heap,mutex,block)\n", kind)
			os.Exit(2)
		}
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// emitMetrics prints one experiment's metrics snapshot as JSON, validating
// that the emitted bytes parse back (so a broken exporter fails the run,
// not a downstream pipeline).
func emitMetrics(res bench.Result) {
	var buf bytes.Buffer
	if err := res.WriteMetricsJSON(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "rmabench: metrics export for %s: %v\n", res.Name, err)
		os.Exit(1)
	}
	var check map[string]any
	if err := json.Unmarshal(buf.Bytes(), &check); err != nil {
		fmt.Fprintf(os.Stderr, "rmabench: metrics JSON for %s does not parse: %v\n", res.Name, err)
		os.Exit(1)
	}
	fmt.Printf("== %s metrics (JSON) ==\n", res.Name)
	os.Stdout.Write(buf.Bytes())
}

// writeTrace writes one experiment's trace sidecar. With several
// experiments in one invocation the experiment id is inserted before the
// file extension so the sidecars do not overwrite each other.
func writeTrace(res bench.Result, path string, multi bool) {
	if multi {
		if i := strings.LastIndex(path, "."); i > 0 {
			path = path[:i] + "-" + res.Name + path[i:]
		} else {
			path = path + "-" + res.Name
		}
	}
	var buf bytes.Buffer
	if err := res.WriteTraceJSON(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "rmabench: trace export for %s: %v\n", res.Name, err)
		os.Exit(1)
	}
	var check map[string]any
	if err := json.Unmarshal(buf.Bytes(), &check); err != nil {
		fmt.Fprintf(os.Stderr, "rmabench: trace JSON for %s does not parse: %v\n", res.Name, err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rmabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace sidecar written to %s (%d events, %d bytes)\n",
		path, traceEventCount(buf.Bytes()), buf.Len())
}

// traceEventCount reports how many events a trace sidecar carries (best
// effort, for the confirmation line).
func traceEventCount(b []byte) int {
	var dump struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		return 0
	}
	return len(dump.Events)
}
