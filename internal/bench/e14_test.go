package bench

import "testing"

// TestE14Smoke runs a serial cell and two sharded cells at one
// apply-dominated payload and checks the acceptance shape on that
// triple: disjoint slots verify byte-exactly under the sharded engine,
// and model time does not regress when the worker bound doubles.
func TestE14Smoke(t *testing.T) {
	serial := e14Cell(256, 0, 0)
	w1 := e14Cell(256, E14Shards, 1)
	w2 := e14Cell(256, E14Shards, 2)
	if !serial.Verified || !w1.Verified || !w2.Verified {
		t.Fatal("a cell left inconsistent slot contents")
	}
	if w1.Row.ModelUS <= 0 || w2.Row.ModelUS <= 0 {
		t.Fatalf("sharded cells reported no model time (w1 %.1fus, w2 %.1fus)",
			w1.Row.ModelUS, w2.Row.ModelUS)
	}
	if w2.Row.ModelUS > w1.Row.ModelUS*1.0001 {
		t.Errorf("workers=2 model time %.1fus regressed over workers=1 %.1fus",
			w2.Row.ModelUS, w1.Row.ModelUS)
	}
}

// TestE14Registered: the experiment is reachable through the rmabench
// registry (Run would run the full grid, so only the listing is
// checked here).
func TestE14Registered(t *testing.T) {
	if _, ok := Lookup("e14"); !ok {
		t.Fatal("e14 missing from Experiments")
	}
}
