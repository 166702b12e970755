package main

import (
	"bytes"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// The tests make quick passes (a hundredth of every op count) and assert
// only what does not depend on the host's speed: names, correctness and the
// values the virtual clock and the allocator make repeatable.

const quickScale = 0.01

// hangGuard dumps every goroutine and exits if the test is still running
// after limit: a rank stuck in a barrier must not hang the suite.
func hangGuard(t *testing.T, limit time.Duration) {
	timer := time.AfterFunc(limit, func() {
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(1)
	})
	t.Cleanup(func() { timer.Stop() })
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := printSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("BENCHMARK.json differs from the metric tables; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if !name.MatchString(d.name) || seen[d.name] {
				t.Errorf("bad or repeated metric name %q", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, wl := range workloads {
		if !name.MatchString(wl.name) || len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %q: bad name or why", wl.name)
		}
	}
}

func TestPlainRunsAreCorrect(t *testing.T) {
	hangGuard(t, 2*time.Minute)
	for _, wl := range workloads {
		out, err := runPlain(wl, 1, 0.2, quickScale)
		if err != nil {
			t.Fatal(err)
		}
		line := driverLine(out, endToEndDefs)
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", wl.name, line.Correct, line.Failed, line.Attempted)
		}
		for name, m := range line.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, name, m.Value)
			}
		}
	}
}

// TestDeterministicValuesRepeat runs the three single-origin workloads
// twice. Each traced run also makes a short pass over the other three, so
// all six are checked for failures here.
func TestDeterministicValuesRepeat(t *testing.T) {
	hangGuard(t, 4*time.Minute)
	for _, name := range []string{"put_8b", "put_1k", "strided_getput"} {
		var runs [2]*outcome
		for i := range runs {
			out, err := runTraced(findWorkload(name), 1, 0.3, quickScale, "")
			if err != nil {
				t.Fatal(err)
			}
			if line := driverLine(out, perLayerDefs); !line.Correct || line.Failed != 0 {
				t.Fatalf("%s: correct=%v failed=%d", name, line.Correct, line.Failed)
			}
			runs[i] = out
		}
		for _, d := range perLayerDefs {
			repeats := d.name == "model_ns_per_op" || d.name == "model_p50_ns" || strings.HasSuffix(d.name, ".allocs")
			if a, b := runs[0].values[d.name], runs[1].values[d.name]; repeats && a != b {
				t.Errorf("%s: %s = %v, then %v", name, d.name, a, b)
			}
		}
		if got := runs[0].values["telemetry.critpath_reconciled_share"]; got != 1 {
			t.Errorf("%s: critical path reconciled share %v, want 1", name, got)
		}
	}
}

func TestRecorderPercentiles(t *testing.T) {
	r := newRecorder()
	for v := int64(1); v <= 100000; v++ {
		r.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100000
		if got := r.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want within 1%% of %v", q, got, want)
		}
	}
	exact := newRecorder()
	for i := 0; i < 1000; i++ {
		exact.add(2183)
	}
	if got := exact.quantile(0.99); got != 2183 {
		t.Errorf("quantile of equal samples = %v, want 2183", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(rate, allocs float64, failed int64, spread float64) *resultFile {
		f := &resultFile{Workloads: map[string]workloadResult{}}
		for _, wl := range workloads {
			f.Workloads[wl.name] = workloadResult{
				Failed:   failed,
				EndToEnd: map[string]metricValue{"ops_per_s": {rate, "op/s"}, "allocs_per_op": {allocs, "1/op"}},
				Detail:   map[string]any{"spread": map[string]any{"ops_per_s": spread}},
			}
		}
		return f
	}
	cases := []struct {
		name string
		b    *resultFile
		code int
		want string
	}{
		{"same", mk(1000, 24, 0, 0.02), 0, "ok"},
		{"slower", mk(700, 24, 0, 0.02), 1, "worse"},
		{"slower but noisy", mk(700, 24, 0, 0.3), 0, "unresolved"},
		{"more allocations", mk(1000, 25, 0, 0.02), 1, "worse"},
		{"a failure", mk(1000, 24, 1, 0.02), 1, "worse"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compareResults(mk(1000, 24, 0, 0.02), c.b, &out); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with a %q row:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}
