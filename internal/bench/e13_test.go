package bench

import "testing"

// TestE13Smoke runs one batched and one unbatched cell at a single small
// payload and checks the acceptance claims hold on that pair: aggregation
// cuts modelled time >=2x, sends fewer wire messages than logical
// operations, and completes without probing.
func TestE13Smoke(t *testing.T) {
	unbatched := e13Cell(e13Series{nonBlocking: true}, 16, 0)
	batched := e13Cell(e13Series{nonBlocking: true, batchOps: E13Batch}, 16, E13Batch)
	if !unbatched.Verified || !batched.Verified {
		t.Fatal("a cell left inconsistent target memory")
	}
	if un, ba := unbatched.Row.ModelUS, batched.Row.ModelUS; ba <= 0 || un < 2*ba {
		t.Errorf("batched issue %.1fus vs unbatched %.1fus: want >=2x reduction", ba, un)
	}
	if batched.Msgs >= batched.LogicalOps {
		t.Errorf("batched run sent %d wire messages for %d logical ops: no aggregation happened",
			batched.Msgs, batched.LogicalOps)
	}
	if batched.Batches == 0 {
		t.Error("batched run sent no aggregates")
	}
	if batched.FastPaths != int64(Fig2Origins) {
		t.Errorf("%d Complete fast paths, want %d (one per origin, no probes)",
			batched.FastPaths, Fig2Origins)
	}
}

// TestE13ProbeCell: plain non-blocking puts report no delivery counter, so
// the "+ probe" series pays one probe round trip per origin without any
// engine switch, while per-put notifications let every origin's Complete
// finish locally.
func TestE13ProbeCell(t *testing.T) {
	probe := e13Cell(e13SeriesSet[1], 8, 0)
	if probe.FastPaths != 0 || probe.Msgs != 745 {
		t.Errorf("%q at 8B: fast_paths %d msgs %d, want 0 and 745", e13SeriesSet[1].name, probe.FastPaths, probe.Msgs)
	}
	notify := e13Cell(e13SeriesSet[2], 8, 0)
	if notify.FastPaths != int64(Fig2Origins) {
		t.Errorf("%q at 8B: fast_paths %d, want %d", e13SeriesSet[2].name, notify.FastPaths, Fig2Origins)
	}
}

// TestE13Registered: the experiment is reachable through the rmabench
// registry (Run would run the full grid, so only the listing is
// checked here).
func TestE13Registered(t *testing.T) {
	if _, ok := Lookup("e13"); !ok {
		t.Fatal("e13 missing from Experiments")
	}
}
