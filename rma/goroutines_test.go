package rma_test

import (
	"bytes"
	"fmt"
	"regexp"
	gort "runtime"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// goroutineRoles counts live goroutines by their profile "role" label,
// from the labelled goroutine profile.
func goroutineRoles() (map[string]int, string) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return nil, err.Error()
	}
	// Each record opens with "<count> @ <pcs>" and, when labelled, is
	// followed by `# labels: {..., "role":"<role>", ...}`.
	record := regexp.MustCompile(`(?m)^(\d+) @ [^\n]*\n# labels: \{[^\n]*"role":"([^"]+)"`)
	roles := map[string]int{}
	for _, m := range record.FindAllStringSubmatch(buf.String(), -1) {
		n, _ := strconv.Atoi(m[1])
		roles[m[2]] += n
	}
	return roles, buf.String()
}

// TestGoroutinesPerRank pins the host goroutines a two-rank world runs
// once every rank has opened a session: one rank goroutine per rank and
// nothing else. Delivery runs on whichever goroutine holds the target
// NIC's token, so the NIC, the thread serializer and sharded applies
// (WithApplyShards(7)) add none; retransmissions, failure pings and the
// unordered wire's releases run when the world goes quiet, so faults,
// replication and an unordered network add none either. A goroutine a
// rank starts inherits the rank's labels, so a helper goroutine per rank
// would count as one more "rank" each; NewWorld starts none at all.
func TestGoroutinesPerRank(t *testing.T) {
	faults := &rma.FaultPlan{Seed: 7, Default: rma.LinkFaults{Drop: 0.1}}
	for _, tc := range []struct {
		name string
		cfg  runtime.Config
		opts []rma.SessionOption
		want map[string]int
	}{
		{"default", runtime.Config{Ranks: 2}, nil, map[string]int{"rank": 2}},
		{"shards7", runtime.Config{Ranks: 2}, []rma.SessionOption{rma.WithApplyShards(7)}, map[string]int{"rank": 2}},
		{"faults", runtime.Config{Ranks: 2, Faults: faults}, nil, map[string]int{"rank": 2}},
		{"replication", runtime.Config{Ranks: 2, Faults: faults}, []rma.SessionOption{rma.WithReplication()}, map[string]int{"rank": 2}},
		{"unordered", runtime.Config{Ranks: 2, UnorderedNet: true, Seed: 7}, nil, map[string]int{"rank": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := gort.NumGoroutine()
			world := newWorld(t, tc.cfg)
			if after := gort.NumGoroutine(); after > before {
				t.Errorf("NewWorld started %d goroutines", after-before)
			}
			err := world.Run(func(p *runtime.Proc) {
				s := rma.Open(p, tc.opts...)
				tm, src := s.Expose(16)
				tms, err := s.Exchange(tm)
				if err != nil {
					t.Errorf("exchange: %v", err)
					return
				}
				// One atomic round trip each way, so whatever a session
				// starts lazily has started.
				if _, err := s.FetchAdd(tms[1-p.Rank()], 0, 1); err != nil {
					t.Errorf("fetch-add: %v", err)
				}
				if _, err := s.Put(src, 8, rma.Byte, tms[1-p.Rank()], 8, rma.WithAtomic(), rma.WithBlocking()); err != nil {
					t.Errorf("put: %v", err)
				}
				p.Barrier()
				if p.Rank() == 0 {
					// Goroutines of earlier tests' worlds may take a moment
					// to exit; the count must settle at the pinned numbers.
					var got map[string]int
					var profile string
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
						got, profile = goroutineRoles()
						if fmt.Sprint(got) == fmt.Sprint(tc.want) || time.Now().After(deadline) {
							break
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(tc.want) {
						t.Errorf("goroutines by role = %v, want %v\n%s", got, tc.want, profile)
					}
				}
				p.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
