package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestChaosSmoke runs one faulted cell against the fault-free reference
// and checks the chaos acceptance claims: byte-exact convergence with
// net.retries > 0 (the burst guarantees at least one retransmission).
func TestChaosSmoke(t *testing.T) {
	baseline := runChaosCell(nil)
	if baseline.Retries != 0 {
		t.Errorf("fault-free reference retransmitted %d times, want 0", baseline.Retries)
	}
	faulted := runChaosCell(chaosPlan(chaosBenchSeries[1].Faults))
	if !bytes.Equal(faulted.Final, baseline.Final) {
		t.Fatal("faulted run diverged from the fault-free bytes")
	}
	if faulted.Retries == 0 {
		t.Fatal("guaranteed drop burst produced no retransmissions")
	}
	if faulted.FaultsInjected == 0 {
		t.Fatal("fault plan injected nothing")
	}
}

// TestChaosRegistered: the chaos experiment is reachable by id and its
// verdict notes carry the documented seed.
func TestChaosRegistered(t *testing.T) {
	e, ok := Lookup("chaos")
	if !ok {
		t.Fatal("chaos missing from Experiments")
	}
	res := e.Run()
	for _, note := range res.Failures() {
		t.Errorf("chaos verification failed: %s", note)
	}
	seedSeen := false
	for _, note := range res.Notes {
		if strings.Contains(note, "seed 4242") {
			seedSeen = true
		}
	}
	if !seedSeen {
		t.Error("chaos notes do not document the seed")
	}
}
