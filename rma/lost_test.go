package rma_test

import (
	"sync"
	"testing"

	"mpi3rma/internal/core"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/trace"
	"mpi3rma/rma"
)

// The lost-request check counts, per rank, the nonblocking requests that
// nothing observed (no Request method, no Select case) and no later
// Complete or CompleteCollective toward their target covered. Each table
// below is one seeded family: a mistake loses exactly one request per
// discarded request, and each legal variant beside it loses none.

type lostCase struct {
	name string
	body func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem)
	want int64
}

// runLost runs every case on a one-rank world that targets its own
// exposure, and checks the rank's lost count.
func runLost(t *testing.T, cases []lostCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := runtime.NewWorld(runtime.Config{Ranks: 1})
			t.Cleanup(w.Close)
			err := w.Run(func(p *runtime.Proc) {
				s := rma.Open(p)
				tm, _ := s.Expose(64)
				tc.body(s, p, tm)
			})
			if err != nil {
				t.Fatal(err)
			}
			got := rma.LostRequests(w)
			if got != tc.want {
				t.Errorf("lost %d requests, want %d", got, tc.want)
			} else if got > 0 {
				t.Logf("%d nonblocking requests lost: never observed, never completed", got)
			}
		})
	}
}

// TestLostRequest ports the direct cases: a dropped Put, Get or
// Accumulate is lost; blocking, completed, waited and escaped-then-waited
// requests are not.
func TestLostRequest(t *testing.T) {
	const libBlocking = core.AttrBlocking | core.AttrOrdering
	engPut := func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem, attrs core.Attr) {
		_, _ = s.Engine().Put(p.Alloc(8), 8, rma.Byte, tm, 0, 8, rma.Byte, 0, p.Comm(), attrs)
	}
	runLost(t, []lostCase{
		{"blank", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
		}, 1},
		{"get in if", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			if _, err := s.Get(p.Alloc(8), 1, rma.Int64, tm, 0); err != nil {
				return
			}
		}, 1},
		{"accumulate", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Accumulate(rma.Sum, p.Alloc(8), 1, rma.Int64, tm, 0)
		}, 1},
		{"blocking is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0, rma.WithBlocking())
		}, 0},
		// The debugging preset is ordered, remote-complete and atomic, not
		// blocking: its request is as loose as any other.
		{"strict debug is not blocking", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0, rma.WithStrictDebug())
		}, 1},
		{"completed later is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
			_ = s.Complete(tm.Owner)
		}, 0},
		{"collective completion is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0, rma.WithNotify())
			_ = s.CompleteCollective()
		}, 0},
		{"kept and waited is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			if req, err := s.Put(p.Alloc(8), 1, rma.Int64, tm, 0); err == nil {
				req.Wait()
			}
		}, 0},
		{"escaped and waited is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			var reqs []*rma.Request
			for i := 0; i < 4; i++ {
				if req, err := s.Get(p.Alloc(8), 1, rma.Int64, tm, 8*i); err == nil {
					reqs = append(reqs, req)
				}
			}
			rma.WaitAll(reqs...)
		}, 0},
		{"deferred completion counts", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
			defer func() { _ = s.Complete() }()
		}, 0},
		// A fire-and-forget that used to carry a suppression comment: the
		// runtime has no suppressions, so a test that means it asserts
		// the count, as this one does.
		{"intentional fire-and-forget", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
		}, 1},
		{"engine put", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			engPut(s, p, tm, 0)
		}, 1},
		{"engine blocking is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			engPut(s, p, tm, core.AttrBlocking|core.AttrOrdering)
			engPut(s, p, tm, libBlocking)
			engPut(s, p, tm, libBlocking|core.AttrAtomic)
		}, 0},
		{"engine ordered is not blocking", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			engPut(s, p, tm, core.AttrOrdering)
		}, 1},
	})
}

// tracker stashes requests in fields.
type tracker struct {
	pending, inflight *rma.Request
	backlog           []*rma.Request
}

// TestLostRequestField ports the field cases: a request stored where
// nothing reads it back is lost; one stored and later drained is not.
func TestLostRequestField(t *testing.T) {
	runLost(t, []lostCase{
		{"stashed, never read", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			var tr tracker
			tr.pending, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
		}, 1},
		{"backlog, never drained", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			var tr tracker
			req, _ := s.Get(p.Alloc(8), 1, rma.Int64, tm, 0)
			tr.backlog = append(tr.backlog, req)
		}, 1},
		{"tracked and drained is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			var tr tracker
			tr.inflight, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 8)
			if tr.inflight != nil {
				tr.inflight.Wait()
			}
		}, 0},
	})
}

// fire issues a nonblocking put and hands its request to the caller.
func fire(s *rma.Session, tm rma.TargetMem, src rma.Region) *rma.Request {
	req, _ := s.Put(src, 1, rma.Int64, tm, 0)
	return req
}

// TestLostRequestCross ports the cases that cross a function boundary:
// a helper's request dropped by its caller, a bare call statement and a
// slice nothing reads are lost, one per request; a helper's request
// awaited, a helper that completes and a blocking helper are not.
func TestLostRequestCross(t *testing.T) {
	runLost(t, []lostCase{
		{"helper request dropped", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			fire(s, tm, p.Alloc(8))
		}, 1},
		{"helper request awaited is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			fire(s, tm, p.Alloc(8)).Wait()
		}, 0},
		{"completes via helper is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
			func() { _ = s.Complete() }()
		}, 0},
		{"bare producer statement", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
		}, 1},
		{"dead slice of requests", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			var reqs []*rma.Request
			for i := 0; i < 4; i++ {
				req, _ := s.Get(p.Alloc(8), 1, rma.Int64, tm, 8*i)
				reqs = append(reqs, req)
			}
		}, 4},
		{"live slice of requests is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			var reqs []*rma.Request
			for i := 0; i < 4; i++ {
				req, _ := s.Get(p.Alloc(8), 1, rma.Int64, tm, 8*i)
				reqs = append(reqs, req)
			}
			for _, req := range reqs {
				req.Wait()
			}
		}, 0},
		{"blocking helper dropped is fine", func(s *rma.Session, p *runtime.Proc, tm rma.TargetMem) {
			_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 0, rma.WithBlocking())
		}, 0},
	})
}

// TestLostRequestSelectObserves: a Select case on a request observes it,
// and a lost request leaves a flight record naming its target and count.
func TestLostRequestSelectObserves(t *testing.T) {
	w := runtime.NewWorld(runtime.Config{Ranks: 1})
	t.Cleanup(w.Close)
	var s *rma.Session
	err := w.Run(func(p *runtime.Proc) {
		s = rma.Open(p, rma.WithFlightRecorder(t.TempDir()))
		tm, _ := s.Expose(64)
		req, _ := s.Put(p.Alloc(8), 1, rma.Int64, tm, 0)
		if _, _, err := s.Select(rma.OnRequest(req)); err != nil {
			t.Errorf("select: %v", err)
		}
		_, _ = s.Put(p.Alloc(8), 1, rma.Int64, tm, 8) // lost
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rma.LostRequests(w); n != 1 {
		t.Errorf("lost %d requests, want 1: the selected one was observed", n)
	}
	events := s.FlightRecorder().Ring().Snapshot()
	for _, ev := range events {
		if ev.Kind == trace.KindLostRequests && ev.Peer == 0 && ev.A == 1 {
			return
		}
	}
	t.Errorf("no lost-requests flight record naming target 0 with count 1 in %v", events)
}

// TestLostRequestConcurrent: goroutines of one rank issue, observe and
// drop requests at once, and the count is exact; a Complete then covers
// every drop.
func TestLostRequestConcurrent(t *testing.T) {
	const workers, each = 4, 200
	w := runtime.NewWorld(runtime.Config{Ranks: 1})
	t.Cleanup(w.Close)
	err := w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		tm, _ := s.Expose(8 * workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := p.Alloc(8)
				for i := 0; i < each; i++ {
					req, err := s.Put(src, 1, rma.Int64, tm, 8*g)
					if err != nil {
						t.Errorf("put: %v", err)
						return
					}
					if i%2 == 0 {
						_ = req.Err()
					}
				}
			}()
		}
		wg.Wait()
		if n := rma.LostRequests(p.World()); n != workers*each/2 {
			t.Errorf("lost %d requests, want %d: every odd one", n, workers*each/2)
		}
		if err := s.Complete(); err != nil {
			t.Errorf("complete: %v", err)
		}
		if n := rma.LostRequests(p.World()); n != 0 {
			t.Errorf("lost %d requests after Complete, want 0", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
