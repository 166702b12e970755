package bench

import "testing"

// TestE15Smoke runs one blocking/pipelined pair at a single compute grain
// and checks the acceptance shape on that cell: the two variants fold
// byte-identical accumulator states, and the pipelined run's modelled
// time is strictly below blocking — overlap efficiency > 0.
func TestE15Smoke(t *testing.T) {
	const grain = 20_000 // 20us of interior compute per sweep
	block := runE15Halo(false, grain)
	pipe := runE15Halo(true, grain)
	if len(block.accs) != E15Ranks || len(pipe.accs) != E15Ranks {
		t.Fatalf("accumulator gather incomplete: blocking %d, pipelined %d", len(block.accs), len(pipe.accs))
	}
	for r := range block.accs {
		if block.accs[r] != pipe.accs[r] {
			t.Errorf("rank %d accumulator diverged: blocking %d, pipelined %d", r, block.accs[r], pipe.accs[r])
		}
	}
	if block.model <= 0 || pipe.model <= 0 {
		t.Fatalf("no model time reported (blocking %d, pipelined %d)", block.model, pipe.model)
	}
	if pipe.model >= block.model {
		t.Errorf("pipelined model time %dns not below blocking %dns — no overlap won", pipe.model, block.model)
	}
}

// TestE15Notes runs the full sweep and requires every self-validating
// note to PASS — the overlap claim at each nonzero grain plus the
// byte-identical check at every grain.
func TestE15Notes(t *testing.T) {
	if testing.Short() {
		t.Skip("full E15 sweep in -short mode")
	}
	res := RunE15()
	for _, n := range res.Failures() {
		t.Errorf("self-check failed: %s", n)
	}
	if len(res.Rows) != 2*len(E15Grains) {
		t.Errorf("%d rows, want %d", len(res.Rows), 2*len(E15Grains))
	}
}

// TestE15Registered: the experiment is reachable through the rmabench
// registry.
func TestE15Registered(t *testing.T) {
	if _, ok := Lookup("e15"); !ok {
		t.Fatal("e15 missing from Experiments")
	}
}
