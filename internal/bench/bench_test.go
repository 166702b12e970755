package bench

import (
	"strings"
	"testing"

	"mpi3rma/internal/core"
	"mpi3rma/internal/serializer"
)

// fakeResult builds a small result for printer tests.
func fakeResult() Result {
	return Result{
		Name:        "fake",
		Title:       "Fake experiment",
		SeriesOrder: []string{"alpha", "beta"},
		Rows: []Row{
			{Series: "alpha", Size: 8, ModelUS: 1.5, Extra: map[string]float64{"msgs": 7}},
			{Series: "alpha", Size: 16, ModelUS: 2.5, Extra: map[string]float64{"msgs": 9}},
			{Series: "beta", Size: 8, ModelUS: 9.5, Extra: map[string]float64{}},
		},
		Notes: []string{"a note"},
	}
}

func TestWriteTable(t *testing.T) {
	var sb strings.Builder
	WriteTable(&sb, fakeResult())
	out := sb.String()
	for _, want := range []string{"Fake experiment", "alpha", "beta", "msgs", "a note", "1.50", "9.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	WriteCSV(&sb, fakeResult())
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows:\n%s", len(lines), out)
	}
	if lines[0] != "experiment,series,size,model_us,msgs" {
		t.Errorf("CSV header %q", lines[0])
	}
	if lines[1] != `fake,"alpha",8,1.500,7` {
		t.Errorf("CSV row %q", lines[1])
	}
}

func TestWritePlot(t *testing.T) {
	var sb strings.Builder
	WritePlot(&sb, fakeResult())
	out := sb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "#") {
		t.Errorf("plot output:\n%s", out)
	}
	// Longer bar for the slower series.
	alphaBar := strings.Count(strings.Split(out, "\n")[1], "#")
	betaBar := strings.Count(strings.Split(out, "\n")[2], "#")
	if betaBar <= alphaBar {
		t.Errorf("beta bar (%d) should exceed alpha bar (%d)", betaBar, alphaBar)
	}
}

func TestSeriesRowsAndSeriesOf(t *testing.T) {
	res := fakeResult()
	if got := res.SeriesRows("alpha"); len(got) != 2 {
		t.Errorf("alpha rows = %d", len(got))
	}
	res.SeriesOrder = nil
	if got := seriesOf(res); len(got) != 2 || got[0] != "alpha" {
		t.Errorf("seriesOf fallback = %v", got)
	}
}

// TestExperimentTable: every id and alias names one experiment, Lookup
// finds each by either, the experiments rmabench runs by default are the
// paper figures (chaos only on request), and an unknown id is rejected.
func TestExperimentTable(t *testing.T) {
	seen := map[string]string{}
	for _, e := range Experiments {
		for _, name := range append([]string{e.ID}, e.Aliases...) {
			if other, dup := seen[name]; dup {
				t.Errorf("%q names both %s and %s", name, other, e.ID)
			}
			seen[name] = e.ID
			if got, ok := Lookup(name); !ok || got.ID != e.ID {
				t.Errorf("Lookup(%q) = %q, %v; want %s", name, got.ID, ok, e.ID)
			}
		}
		if e.InAll == (e.ID == "chaos") {
			t.Errorf("%s: InAll = %v", e.ID, e.InAll)
		}
	}
	if e, ok := Lookup("e6"); !ok || e.ID != "fig1" {
		t.Errorf("Lookup(e6) = %q, %v; want fig1 (the paper's E6 is Fig. 1)", e.ID, ok)
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("Lookup accepted an unknown id")
	}
}

// TestSmallRunnersExecute runs reduced versions of the table-producing
// experiments end to end (the full-size runs live in cmd/rmabench).
func TestSmallRunnersExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runners in -short mode")
	}
	t.Run("e3-cell", func(t *testing.T) {
		out := RunPutsComplete(PutsCompleteConfig{
			Origins: 2, Puts: 20, Size: 32,
			Attrs: core.AttrOrdering, Mech: serializer.MechThread, Unordered: true,
		})
		if !out.Verified || out.Row.ModelUS <= 0 {
			t.Errorf("e3 cell: verified=%v model=%v", out.Verified, out.Row.ModelUS)
		}
	})
	t.Run("e5-cell", func(t *testing.T) {
		row := runE5Cell(64, true)
		if row.Extra["stale_reads"] == 0 {
			t.Error("non-coherent cell should observe a stale read")
		}
		if row.Extra["lines_invalidated"] == 0 {
			t.Error("non-coherent cell should invalidate cache lines")
		}
	})
	t.Run("fig1-cell", func(t *testing.T) {
		row := runFig1Cell("mpi2 fence epoch", 64, 3)
		if row.ModelUS <= 0 {
			t.Errorf("fence epoch model time %v", row.ModelUS)
		}
		putRow := runFig1Cell("strawman blocking put", 64, 3)
		if putRow.ModelUS >= row.ModelUS {
			t.Errorf("strawman put (%v) should be cheaper than a fence epoch (%v)", putRow.ModelUS, row.ModelUS)
		}
	})
	t.Run("e7-cell", func(t *testing.T) {
		row := runE7Cell("gasnet contiguous put", 64, 3)
		put := runE7Cell("strawman contiguous put", 64, 3)
		if row.ModelUS <= put.ModelUS {
			t.Errorf("AM-mediated gasnet put (%v) should cost more than a local-complete strawman put (%v)", row.ModelUS, put.ModelUS)
		}
	})
	t.Run("e9-cell", func(t *testing.T) {
		row := runE9Cell("contiguous to big-endian target", 16, 3)
		if row.ModelUS <= 0 {
			t.Errorf("model time %v", row.ModelUS)
		}
	})
	t.Run("e10-cell", func(t *testing.T) {
		// Eight ranks, not four: at four the n² probes are few enough that
		// a lucky host interleaving lets ALL_RANKS finish under the
		// collective's fixed count exchange.
		loop := runE10Cell("loop Complete(r) over ranks", 8, 5)
		all := runE10Cell("Complete(ALL_RANKS)", 8, 5)
		coll := runE10Cell("CompleteCollective", 8, 5)
		if loop.ModelUS <= 0 || all.ModelUS <= 0 || coll.ModelUS <= 0 {
			t.Error("completion cells did not run")
		}
		if coll.ModelUS >= all.ModelUS {
			t.Errorf("collective (%v) should beat ALL_RANKS (%v): prior knowledge replaces n² probes with one count exchange", coll.ModelUS, all.ModelUS)
		}
	})
}

// TestE12ShapeInvariants asserts the Figure 2 conclusions survive 4x
// calibration changes (the repository's central robustness claim).
func TestE12ShapeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep in -short mode")
	}
	res := RunE12()
	for _, note := range res.Failures() {
		t.Error(note)
	}
	if len(res.Notes) < 7 {
		t.Errorf("only %d variants ran", len(res.Notes))
	}
}

// TestE4SoftAcksCounted: nic.soft_acks counts the engine's software echoes.
// Every remote-complete put of the software-echo cell is acknowledged by
// the target CPU — one soft ack per put — and the hardware-ack cell sends
// none, so E4's soft_acks column tells its two series apart.
func TestE4SoftAcksCounted(t *testing.T) {
	const origins, puts = 2, 10
	for _, soft := range []bool{false, true} {
		out := RunPutsComplete(PutsCompleteConfig{
			Origins: origins, Puts: puts, Size: 8,
			Attrs: core.AttrRemoteComplete, Mech: serializer.MechThread,
			SoftwareAcks: soft,
		})
		want := int64(0)
		if soft {
			want = origins * puts
		}
		if !out.Verified || out.SoftAcks != want {
			t.Errorf("software acks %v: verified=%v soft_acks=%d, want %d", soft, out.Verified, out.SoftAcks, want)
		}
	}
}
