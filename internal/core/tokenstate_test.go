package core

import (
	"encoding/binary"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
)

// TestTokenStateWithLocalWaiters exercises the lock classification of
// DESIGN.md §5 where its parties meet: two origins' puts land at rank 0 —
// run by whichever goroutine holds rank 0's delivery token — while rank 0
// itself links and unlinks OnApplied waiters in one- and two-case Selects
// and loads the landing words locally. Under the progress serializer the
// atomic puts apply on rank 0's own goroutine, inside its waits, and with
// four shards they route through the shard lanes. Under the race detector
// any token-only state touched without the token panics (AssertToken), and
// any state shared with the owning rank touched without the engine's mu
// races. Each origin writes increasing values into words of its own, so a
// local load must see every word rise and only ever hold its origin's
// values; at the end each word holds its last put and each origin's count
// is exact.
func TestTokenStateWithLocalWaiters(t *testing.T) {
	const (
		puts  = 300
		words = 8 // per origin
	)
	for _, tc := range []struct {
		name  string
		opts  Options
		attrs Attr
	}{
		{"thread", Options{}, AttrBlocking},
		{"progress", Options{Atomicity: serializer.MechProgress}, AttrAtomic | AttrBlocking},
		{"shards4", Options{ApplyShards: 4}, AttrBlocking},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, runtime.Config{Ranks: 3, Seed: 53})
			runBounded(t, w, time.Minute, func(p *runtime.Proc) {
				e := Attach(p, tc.opts)
				comm := p.Comm()
				if p.Rank() == 0 {
					tm, region := e.ExposeNew(2 * words * 8)
					for r := 1; r <= 2; r++ {
						p.Send(r, 0, tm.Encode())
					}
					var last [2 * words]uint64
					load := func() {
						buf := p.ReadLocal(region, 0, region.Size)
						for j := range last {
							v := binary.LittleEndian.Uint64(buf[8*j:])
							if v != 0 && int(v>>32) != 1+j/words {
								t.Errorf("word %d holds %#x, written by no put of its origin", j, v)
							}
							if v < last[j] {
								t.Errorf("word %d went back from %#x to %#x", j, last[j], v)
							}
							last[j] = v
						}
					}
					var have [3]int64
					for round := 0; have[1] < puts || have[2] < puts; round++ {
						cases := []SelectCase{OnApplied(1, have[1]+1), OnApplied(2, have[2]+1)}
						if round%2 == 1 { // the one-case wait, on its reused wake slot
							cases = cases[:1]
							if have[1] == puts {
								cases[0] = OnApplied(2, have[2]+1)
							}
						}
						_, ev, err := e.Select(comm, cases...)
						if err != nil {
							t.Errorf("select: %v", err)
							break
						}
						have[ev.Rank] = ev.Count
						load()
					}
					for j := range last {
						i := puts
						for i%words != j%words {
							i--
						}
						if want := uint64(1+j/words)<<32 | uint64(i); last[j] != want {
							t.Errorf("word %d ends as %#x, want its last put %#x", j, last[j], want)
						}
					}
					for o := 1; o <= 2; o++ {
						if got := e.AppliedFrom(o); got != puts {
							t.Errorf("applied %d from origin %d, want %d", got, o, puts)
						}
					}
					p.Barrier()
					return
				}
				enc, _ := p.Recv(0, 0)
				tm, _ := DecodeTargetMem(enc)
				src := p.Alloc(8)
				base := (p.Rank() - 1) * words * 8
				for i := 1; i <= puts; i++ {
					var v [8]byte
					binary.LittleEndian.PutUint64(v[:], uint64(p.Rank())<<32|uint64(i))
					p.WriteLocal(src, 0, v[:])
					if _, err := e.Put(src, 1, datatype.Int64, tm, base+8*(i%words), 1, datatype.Int64, 0, comm, tc.attrs); err != nil {
						t.Errorf("rank %d put %d: %v", p.Rank(), i, err)
						break
					}
				}
				if err := e.Complete(comm, 0); err != nil {
					t.Errorf("rank %d complete: %v", p.Rank(), err)
				}
				p.Barrier()
			})
		})
	}
}
