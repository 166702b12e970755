package telemetry

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mpi3rma/internal/trace"
)

// legendRow renders one kind as its row of the legend table in DESIGN.md
// §12: name, recording side, the names of A and B, the rings that keep it,
// and the critical-path stage charged with a gap that ends at it.
func legendRow(k trace.Kind) string {
	side := "local"
	if k.AtTarget() {
		side = "target"
	}
	a, b := k.Args()
	dash := func(s string) string {
		if s == "" {
			return "–"
		}
		return s
	}
	var rings []string
	if k.Dest()&trace.ToTrace != 0 {
		rings = append(rings, "trace")
	}
	if k.Dest()&trace.ToFlight != 0 {
		rings = append(rings, "flight")
	}
	stage := "–"
	switch {
	case k == trace.KindIssue || k == trace.KindEnqueue:
		stage = "opens a span"
	case k == trace.KindRetransmit:
		stage = "feeds " + StageRetransmitStall
	case k == trace.KindApply:
		stage = strings.Join([]string{StageWire, StageRetransmitStall, StageShardQueue, StageApply}, " / ")
	case k.Dest()&trace.ToTrace != 0:
		stage = stageOfGap(k)
	}
	return fmt.Sprintf("| `%s` | %s | %s | %s | %s | %s |", k, side, dash(a), dash(b), strings.Join(rings, "+"), stage)
}

// TestKindTable walks every Kind and fails when one is not fully wired: a
// unique name that decodes back, a ring that keeps it, a critical-path
// stage if it can appear inside a span, and its row in the DESIGN.md
// legend. Adding a kind without all four fails here, not in a reader's
// hands.
func TestKindTable(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("reading the design notes: %v", err)
	}
	seen := make(map[string]trace.Kind)
	atTarget := make(map[string]bool)
	for k := trace.Kind(1); k < trace.NumKinds; k++ {
		name := k.String()
		if name == "unknown" {
			t.Errorf("kind %d has no name", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		if back, ok := trace.KindByName(name); !ok || back != k {
			t.Errorf("%s does not decode back to itself (got %d, %v)", name, back, ok)
		}
		if k.Dest() == 0 {
			t.Errorf("%s is kept by no ring: an emit of it would be dropped", name)
		}
		if k.AtTarget() {
			atTarget[name] = true
		}
		inSpan := k.Dest()&trace.ToTrace != 0 && k != trace.KindRetransmit
		opener := k == trace.KindIssue || k == trace.KindEnqueue
		if stage := stageOfGap(k); inSpan && !opener && stage == StageOther {
			t.Errorf("%s can end a gap inside a span but maps to no stage: its time would land in %q", name, StageOther)
		} else if (!inSpan || opener) && stage != StageOther {
			t.Errorf("%s never ends a gap inside a span but claims stage %q", name, stage)
		}
		if row := legendRow(k); !strings.Contains(string(design), row) {
			t.Errorf("DESIGN.md §12 legend has no row\n%s", row)
		}
	}
	// The three kinds recorded by the rank an operation targets: a span is
	// keyed by (origin, id), so a wrong side files the event under the
	// wrong origin.
	if len(atTarget) != 3 || !atTarget["apply"] || !atTarget["probe"] || !atTarget["delivery"] {
		t.Errorf("target-side kinds are %v, want apply, probe, delivery", atTarget)
	}
	if k := trace.Kind(0); k.String() != "unknown" || k.Dest() != 0 {
		t.Error("the zero Kind must be invalid")
	}
	if k := trace.NumKinds; k.String() != "unknown" || k.Dest() != 0 {
		t.Error("a Kind past the table must be invalid")
	}
}
