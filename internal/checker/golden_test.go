package checker_test

import (
	"bytes"
	"strings"
	"testing"

	"mpi3rma/internal/checker"
	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// stampZero writes the first word of tm: a helper whose access meets its
// caller's at the target.
func stampZero(s *rma.Session, tm rma.TargetMem, src rma.Region) {
	_, _ = s.Put(src, 1, rma.Int64, tm, 0)
}

// stampAndComplete writes the first word and completes: its callers start
// clean.
func stampAndComplete(s *rma.Session, tm rma.TargetMem, src rma.Region) {
	stampZero(s, tm, src)
	_ = s.Complete()
}

// TestRemoteConflict runs the seeded overlapping-access mistakes one rank
// can make against its own exposure, and the legal variants beside them:
// each mistake is reported once, on the overlapping byte range, and each
// legal variant is silent.
func TestRemoteConflict(t *testing.T) {
	type span struct{ lo, hi int }
	for _, tc := range []struct {
		name string
		body func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem)
		want []span
	}{
		{"overlapping puts", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			src := p.Alloc(16)
			_, _ = s.Put(src, 2, rma.Int64, tm, 0)
			_, _ = s.Put(src, 1, rma.Int64, tm, 8)
		}, []span{{8, 16}}},
		{"put then overlapping get", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			src := p.Alloc(8)
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
			_, _ = s.Get(src, 1, rma.Int64, tm, 0)
		}, []span{{0, 8}}},
		{"RMW against a plain put", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
			_, _ = s.FetchAdd(tm, 0, 1)
		}, []span{{0, 8}}},
		{"helper then direct", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			src := p.Alloc(8)
			stampZero(s, tm, src)
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
		}, []span{{0, 8}}},
		{"order legalizes", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			src := p.Alloc(8)
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
			_ = s.Order()
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
		}, nil},
		{"complete legalizes", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			src := p.Alloc(8)
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
			_ = s.Complete(tm.Owner)
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
		}, nil},
		{"legalizing helper", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			src := p.Alloc(8)
			stampAndComplete(s, tm, src)
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
		}, nil},
		{"atomic pair", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			src := p.Alloc(8)
			_, _ = s.Accumulate(rma.Sum, src, 1, rma.Int64, tm, 0, rma.WithAtomic())
			_, _ = s.Accumulate(rma.Sum, src, 1, rma.Int64, tm, 0, rma.WithAtomic())
		}, nil},
		{"RMW pair", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.FetchAdd(tm, 0, 1)
			_, _ = s.FetchAdd(tm, 0, 1)
		}, nil},
		{"disjoint", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			src := p.Alloc(8)
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
			_, _ = s.Put(src, 1, rma.Int64, tm, 8)
		}, nil},
		{"reads only", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			dst := p.Alloc(8)
			_, _ = s.Get(dst, 1, rma.Int64, tm, 0)
			_, _ = s.Get(dst, 1, rma.Int64, tm, 0)
		}, nil},
		{"distinct handles", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			tm2, _ := s.Expose(64)
			src := p.Alloc(8)
			_, _ = s.Put(src, 1, rma.Int64, tm, 0)
			_, _ = s.Put(src, 1, rma.Int64, tm2, 0)
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conflicts := runWorld(t, 1, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
				tc.body(s, p, tm)
				_ = s.Complete()
			})
			if len(conflicts) != len(tc.want) {
				t.Fatalf("%d conflicts %v, want %d", len(conflicts), conflicts, len(tc.want))
			}
			for i, c := range conflicts {
				if got := (span{c.Lo, c.Hi}); got != tc.want[i] {
					t.Errorf("conflict on bytes [%d,%d), want [%d,%d)", c.Lo, c.Hi, tc.want[i].lo, tc.want[i].hi)
				}
				t.Log(c)
			}
		})
	}
}

// TestCheckerTruncationReported: past the live cap an overlap goes unseen.
// Origin 1 puts MaxLive+1 disjoint words, then origin 2 overwrites the
// last one, whose access was never kept live: the conflict is missed, and
// the report must say that its "no conflicts" is incomplete.
func TestCheckerTruncationReported(t *testing.T) {
	const words = checker.MaxLive + 1
	w := runtime.NewWorld(runtime.Config{Ranks: 3})
	t.Cleanup(func() {
		if n := rma.LostRequests(w); n != 0 {
			t.Errorf("%d nonblocking requests lost: never observed, never completed", n)
		}
		w.Close()
	})
	var c *checker.Checker
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithChecker())
		tms, _, err := s.ExposeCollective(8 * words)
		if err != nil {
			t.Errorf("expose: %v", err)
			return
		}
		tm, src := tms[0], p.Alloc(8)
		switch p.Rank() {
		case 1:
			for i := 0; i < words; i++ {
				_, _ = s.Put(src, 1, rma.Int64, tm, 8*i)
			}
			_ = s.Complete(0)
			p.Send(2, 0, nil)
		case 2:
			p.Recv(1, 0)
			_, _ = s.Put(src, 1, rma.Int64, tm, 8*(words-1))
			_ = s.Complete(0)
		}
		p.Barrier()
		if p.Rank() == 0 {
			c = s.Checker()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.ConflictCount(); n != 0 {
		t.Fatalf("%d conflicts: the reproducer no longer reaches the cap", n)
	}
	if got := c.Truncated(); got != 2 {
		t.Errorf("Truncated() = %d, want 2", got)
	}
	var buf bytes.Buffer
	c.Report(&buf)
	t.Log(strings.TrimSpace(buf.String()))
	if !strings.Contains(buf.String(), "incomplete: 2 accesses past the 8192-entry live cap") {
		t.Errorf("report does not say it is incomplete:\n%s", buf.String())
	}
}
