package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// gate is the bound -compare holds one metric to. These are the issue's
// bounds, per workload where it gives one; BENCHMARK.json can carry only one
// bound per metric and only host-clock metrics (see README), so the driver's
// gate is the coarser of the two. A negative bound means reported, not gated.
type gate struct {
	name     string
	perLayer bool
	bound    float64
	override map[string]float64
}

var gates = []gate{
	{name: "ops_per_s", bound: 0.25},
	{name: "allocs_per_op", bound: 0.01, override: map[string]float64{"fig2_attrs": 0.03, "dht_zipf": 0.03, "queue_handoff": 0.10}},
	{name: "alloc_bytes_per_op", bound: 0.02, override: map[string]float64{"fig2_attrs": 0.03, "dht_zipf": 0.03, "queue_handoff": 0.10}},
	{name: "model_ns_per_op", perLayer: true, bound: 0.005, override: map[string]float64{"fig2_attrs": 0.10, "dht_zipf": 0.05, "queue_handoff": -1}},
	{name: "model_p50_ns", perLayer: true, bound: 0.005, override: map[string]float64{"dht_zipf": 0.02, "queue_handoff": 0.05}},
	{name: "model_p99_ns", perLayer: true, bound: 0.005, override: map[string]float64{"fig2_attrs": 0.05, "dht_zipf": 0.10, "queue_handoff": -1}},
	{name: "setup_s", bound: 0.25},
	{name: "host_mem_mb", bound: 0.10},
}

func better(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.better
			}
		}
	}
	return "lower"
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spread returns the workload's recorded round-to-round spread of a metric,
// as a share of its median, or 0 when the file records none.
func (w workloadResult) spread(name string) float64 {
	m, _ := w.Detail["spread"].(map[string]any)
	s, _ := m[name].(float64)
	return s
}

// compareFiles prints one row per workload and gated metric of b against a
// and returns the exit code: 1 if any row is worse, or if more operations
// failed; 2 if a file cannot be read.
func compareFiles(pathA, pathB string, w io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResult(path)
		if err != nil {
			fmt.Fprintln(w, "benchmark:", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(files[0], files[1], w)
}

func compareResults(a, b *resultFile, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse%", "bound%", "verdict")
	for _, wl := range workloads {
		ra, okA := a.Workloads[wl.name]
		rb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-16s missing from one file\n", wl.name)
			code = 1
			continue
		}
		for _, g := range gates {
			bound := g.bound
			if o, ok := g.override[wl.name]; ok {
				bound = o
			}
			va, vb := ra.EndToEnd[g.name].Value, rb.EndToEnd[g.name].Value
			if g.perLayer {
				va, vb = ra.PerLayer[g.name].Value, rb.PerLayer[g.name].Value
			}
			worse := ratio(vb-va, va)
			if better(g.name) == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := "ok"
			switch {
			case bound < 0:
				verdict = "reported"
			case worse > bound && (ra.spread(g.name) > bound || rb.spread(g.name) > bound):
				// The rounds of one run already spread wider than the
				// bound: the two medians cannot be told apart.
				verdict = "unresolved"
			case worse > bound:
				verdict = "worse"
				code = 1
			}
			boundPct := fmt.Sprintf("%.2f", 100*bound)
			if bound < 0 {
				boundPct = "-"
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %8.2f %7s  %s\n", wl.name, g.name, va, vb, 100*worse, boundPct, verdict)
		}
		verdict := "ok"
		if rb.Failed > ra.Failed {
			verdict = "worse"
			code = 1
		}
		fmt.Fprintf(w, "%-16s %-20s %14d %14d %8s %7s  %s\n", wl.name, "failed_ops", ra.Failed, rb.Failed, "", "0", verdict)
	}
	return code
}

// printSpec writes BENCHMARK.json.
func printSpec(w io.Writer) error {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wlSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wlSpec `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		spec.Workloads = append(spec.Workloads, wlSpec{wl.name, wl.why})
	}
	for _, d := range endToEndDefs {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayerDefs {
		spec.PerLayer = append(spec.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
