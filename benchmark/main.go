// Command benchmark is the repository's benchmark: six steady-state RMA
// workloads on persistent worlds, measured end to end on the host clock and,
// in a traced run, layer by layer on both clocks. See README.md.
//
// The driver's contract (BENCHMARK.json) is one run per invocation:
//
//	benchmark -workload put_8b -seed 1 -seconds 10 -trace 0
//
// which prints one JSON object as the last line of standard output. Without
// -workload it runs every workload in both modes and, with -json, writes a
// result file that -compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	gort "runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// runLimit is the contract's ceiling on one run, less a margin: past it the
// watchdog dumps every goroutine and exits rather than hang the driver.
const runLimit = 170 * time.Second

func main() {
	workloadName := flag.String("workload", "", "run this one workload and print the driver's JSON line (default: all, both modes)")
	seed := flag.Int64("seed", 1, "seed for runtime.Config.Seed, the op-mix and key generators and the payload bytes")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, instruments off; 1: per-layer metrics from a traced pass and the layer drives")
	quick := flag.Bool("quick", false, "smoke run: a hundredth of every op count (numbers mean nothing)")
	outDir := flag.String("out", "", "directory for spans-<workload>.json and critpath-<workload>.json of traced runs (default: none written)")
	jsonPath := flag.String("json", "", "all-workloads mode: write the result file here")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json from the metric tables and exit")
	flag.Parse()

	switch {
	case *spec:
		must(printSpec(os.Stdout))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	scale := 1.0
	if *quick {
		scale = 0.01
	}

	if *workloadName == "" {
		if err := runAll(*seed, *seconds, scale, *outDir, *jsonPath); err != nil {
			fatalf("%v", err)
		}
		return
	}
	wl := findWorkload(*workloadName)
	if wl == nil {
		fatalf("unknown workload %q", *workloadName)
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v; goroutines:\n", wl.name, runLimit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	out, err := runOne(wl, *seed, *seconds, scale, *trace == 1, *outDir)
	watchdog.Stop()
	if err != nil {
		fatalf("%v", err)
	}
	defs := endToEndDefs
	if *trace == 1 {
		defs = perLayerDefs
	}
	printValues(wl.name, out, defs)
	line, err := json.Marshal(driverLine(out, defs))
	must(err)
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func runOne(wl *workload, seed int64, seconds, scale float64, traced bool, outDir string) (*outcome, error) {
	if traced {
		return runTraced(wl, seed, seconds, scale, outDir)
	}
	return runPlain(wl, seed, seconds, scale)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func driverLine(out *outcome, defs []metricDef) resultLine {
	line := resultLine{
		Correct:   out.correct && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := out.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fatalf("metric %s is not a finite number", d.name)
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	return line
}

func printValues(workload string, out *outcome, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-16s %-48s %16.4f %s\n", workload, d.name, out.values[d.name], d.unit)
	}
}

// environment is the header of a result file.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Host       string  `json:"host"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	OpScale    float64 `json:"op_scale"`
	WallS      float64 `json:"total_wall_s"`
}

func readEnvironment(seed int64, seconds, scale float64) environment {
	host, _ := os.Hostname()
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return environment{
		GoVersion: gort.Version(), GOOS: gort.GOOS, GOARCH: gort.GOARCH,
		NumCPU: gort.NumCPU(), GOMAXPROCS: gort.GOMAXPROCS(0), GOGC: gogc,
		Host: host, Commit: gitCommit(), Seed: seed, Seconds: seconds, OpScale: opScale * scale,
	}
}

// gitCommit reads the commit from the repository this directory sits in, if
// it sits in one; the driver's checkout is not a repository.
func gitCommit() string {
	for _, dir := range []string{"..", "."} {
		head, err := os.ReadFile(dir + "/.git/HEAD")
		if err != nil {
			continue
		}
		commit := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			resolved, err := os.ReadFile(dir + "/.git/" + ref)
			if err != nil {
				break
			}
			commit = strings.TrimSpace(string(resolved))
		}
		if len(commit) >= 12 {
			return commit[:12]
		}
	}
	return "unknown"
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
	Claim     *string                   `json:"claim"` // always null: the benchmark claims no gain
}

type workloadResult struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Correct   bool                   `json:"correct"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Detail    map[string]any         `json:"detail"`
}

// runAll runs every workload plain and traced, prints every metric, and
// writes the result file.
func runAll(seed int64, seconds, scale float64, outDir, jsonPath string) error {
	start := time.Now()
	file := resultFile{Env: readEnvironment(seed, seconds, scale), Workloads: map[string]workloadResult{}}
	failed := false
	for _, wl := range workloads {
		plain, err := runPlain(wl, seed, seconds, scale)
		if err != nil {
			return err
		}
		printValues(wl.name, plain, endToEndDefs)
		traced, err := runTraced(wl, seed, seconds, scale, outDir)
		if err != nil {
			return err
		}
		printValues(wl.name, traced, perLayerDefs)
		a, b := driverLine(plain, endToEndDefs), driverLine(traced, perLayerDefs)
		for k, v := range traced.detail {
			plain.detail[k] = v
		}
		for k, v := range traced.spread {
			plain.spread[k] = v
		}
		plain.detail["spread"] = plain.spread
		file.Workloads[wl.name] = workloadResult{
			Attempted: a.Attempted + b.Attempted, Failed: a.Failed + b.Failed, Correct: a.Correct && b.Correct,
			EndToEnd: a.Metrics, PerLayer: b.Metrics, Detail: plain.detail,
		}
		fmt.Printf("%-16s attempted %d failed %d correct %v\n", wl.name, a.Attempted+b.Attempted, a.Failed+b.Failed, a.Correct && b.Correct)
		failed = failed || !a.Correct || !b.Correct
	}
	file.Env.WallS = time.Since(start).Seconds()
	if jsonPath != "" {
		if err := writeJSON(jsonPath, file); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("some outputs failed verification")
	}
	return nil
}
