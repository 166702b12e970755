package checker_test

import (
	"strings"
	"testing"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// runWorld drives a small world with the checker enabled on every rank and
// returns the conflicts collected on rank 0. Its cleanup asserts that no
// rank lost a nonblocking request.
func runWorld(t *testing.T, ranks int, body func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem)) []rma.Conflict {
	t.Helper()
	world := runtime.NewWorld(runtime.Config{Ranks: ranks})
	t.Cleanup(func() {
		if n := rma.LostRequests(world); n != 0 {
			t.Errorf("%d nonblocking requests lost: never observed, never completed", n)
		}
		world.Close()
	})

	var conflicts []rma.Conflict
	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p, rma.WithChecker())
		var tm rma.TargetMem
		if p.Rank() == 0 {
			tm, _ = s.Expose(64)
			enc := tm.Encode()
			for r := 1; r < ranks; r++ {
				p.Send(r, 0, enc)
			}
		} else {
			enc, _ := p.Recv(0, 0)
			var err error
			tm, err = rma.DecodeTargetMem(enc)
			if err != nil {
				t.Errorf("decode descriptor: %v", err)
				return
			}
		}
		body(s, p, tm)
		if p.Rank() == 0 {
			// Collected before the window retires: CompleteCollective runs
			// inside body (or not at all), and world.Run joins every rank
			// before we read the slice.
			conflicts = s.Checker().Conflicts()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return conflicts
}

// put writes 8 bytes at disp and completes toward the target.
func put(t *testing.T, s *rma.Session, p *runtime.Proc, tm rma.TargetMem, disp int, opts ...rma.OpOption) {
	t.Helper()
	src := p.Alloc(8)
	if _, err := s.Put(src, 1, rma.Int64, tm, disp, opts...); err != nil {
		t.Errorf("put: %v", err)
		return
	}
	if err := s.Complete(tm.Owner); err != nil {
		t.Errorf("complete: %v", err)
	}
}

// TestCheckerFlagsOverlappingPuts is the seeded-conflict acceptance test:
// two origins put the same 8 bytes without the atomicity attribute inside
// one collective-completion window, and the checker must flag the pair.
func TestCheckerFlagsOverlappingPuts(t *testing.T) {
	conflicts := runWorld(t, 3, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
		if p.Rank() != 0 {
			put(t, s, p, tm, 0)
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	if len(conflicts) == 0 {
		t.Fatal("overlapping non-atomic puts from two origins were not flagged")
	}
	c := conflicts[0]
	if c.Target != 0 || c.Lo != 0 || c.Hi != 8 {
		t.Errorf("conflict localized to target %d bytes [%d,%d), want target 0 bytes [0,8)", c.Target, c.Lo, c.Hi)
	}
	got := map[int]bool{c.First.Origin: true, c.Second.Origin: true}
	if !got[1] || !got[2] {
		t.Errorf("conflict names origins %d and %d, want 1 and 2", c.First.Origin, c.Second.Origin)
	}
	if c.First.OpID == 0 || c.Second.OpID == 0 {
		t.Error("conflict is missing the op ids needed to correlate with a trace")
	}
	if !strings.Contains(c.Advice, "CompleteCollective") {
		t.Errorf("advice %q does not name the legalizing synchronization", c.Advice)
	}
}

// TestCheckerAtomicPairClean: the same overlap with both puts atomic is
// legal (element-wise atomicity) and must not be reported.
func TestCheckerAtomicPairClean(t *testing.T) {
	conflicts := runWorld(t, 3, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
		if p.Rank() != 0 {
			put(t, s, p, tm, 0, rma.WithAtomic())
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	for _, c := range conflicts {
		t.Errorf("atomic pair reported as conflict: %s", c)
	}
}

// TestCheckerDisjointClean: byte-disjoint puts never conflict.
func TestCheckerDisjointClean(t *testing.T) {
	conflicts := runWorld(t, 3, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
		if p.Rank() != 0 {
			put(t, s, p, tm, 8*p.Rank())
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	for _, c := range conflicts {
		t.Errorf("disjoint puts reported as conflict: %s", c)
	}
}

// TestCheckerGetPutConflict: a get overlapping another origin's non-atomic
// put is a read/write conflict.
func TestCheckerGetPutConflict(t *testing.T) {
	conflicts := runWorld(t, 3, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
		switch p.Rank() {
		case 1:
			put(t, s, p, tm, 0)
		case 2:
			dst := p.Alloc(8)
			if _, err := s.Get(dst, 1, rma.Int64, tm, 0); err != nil {
				t.Errorf("get: %v", err)
			} else if err := s.Complete(tm.Owner); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	if len(conflicts) == 0 {
		t.Fatal("get overlapping a non-atomic put was not flagged")
	}
}

// TestCheckerSameOriginEpochs: one origin overwriting its own bytes without
// intervening synchronization is flagged; with an Order between the puts
// the pair is epoch-separated and clean.
func TestCheckerSameOriginEpochs(t *testing.T) {
	run := func(order bool) []rma.Conflict {
		return runWorld(t, 2, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			if p.Rank() == 1 {
				src := p.Alloc(8)
				if _, err := s.Put(src, 1, rma.Int64, tm, 0); err != nil {
					t.Errorf("put: %v", err)
				}
				if order {
					if err := s.Order(tm.Owner); err != nil {
						t.Errorf("order: %v", err)
					}
				}
				if _, err := s.Put(src, 1, rma.Int64, tm, 0); err != nil {
					t.Errorf("put: %v", err)
				}
				if err := s.Complete(tm.Owner); err != nil {
					t.Errorf("complete: %v", err)
				}
			}
			if err := s.CompleteCollective(); err != nil {
				t.Errorf("complete collective: %v", err)
			}
		})
	}

	if conflicts := run(false); len(conflicts) == 0 {
		t.Error("same-origin overlapping puts with no Order between them were not flagged")
	} else if !strings.Contains(conflicts[0].Advice, "Order") {
		t.Errorf("advice %q does not suggest Order", conflicts[0].Advice)
	}
	for _, c := range run(true) {
		t.Errorf("Order-separated puts reported as conflict: %s", c)
	}
}

// TestCheckerWindowRetires: accesses in different collective-completion
// windows never pair, even across origins.
func TestCheckerWindowRetires(t *testing.T) {
	conflicts := runWorld(t, 3, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
		if p.Rank() == 1 {
			put(t, s, p, tm, 0)
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
		if p.Rank() == 2 {
			put(t, s, p, tm, 0)
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	for _, c := range conflicts {
		t.Errorf("accesses in separate completion windows reported as conflict: %s", c)
	}
}

// TestCheckerRMWClean: RMWs are inherently atomic; two origins hammering
// the same word via FetchAdd is the supported pattern and must be clean,
// while a plain put overlapping the same word is not.
func TestCheckerRMWClean(t *testing.T) {
	conflicts := runWorld(t, 3, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
		if p.Rank() != 0 {
			if _, err := s.FetchAdd(tm, 0, 1); err != nil {
				t.Errorf("fetchadd: %v", err)
			}
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	for _, c := range conflicts {
		t.Errorf("concurrent RMWs reported as conflict: %s", c)
	}

	conflicts = runWorld(t, 3, func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
		switch p.Rank() {
		case 1:
			if _, err := s.FetchAdd(tm, 0, 1); err != nil {
				t.Errorf("fetchadd: %v", err)
			}
		case 2:
			put(t, s, p, tm, 0)
		}
		if err := s.CompleteCollective(); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
	if len(conflicts) == 0 {
		t.Error("plain put overlapping another origin's RMW was not flagged")
	}
}
