package dht

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

// TestMapAllocsPerCall pins what each public call allocates on an
// uncontended table in the steady state, the client and the stripe owner
// together: nothing. A write-back's puts take no request (blocking, done
// at their send), Get's value is a slice of the handle's own buffer, and
// CAS compares in a second one. `make allocs` prints the table.
func TestMapAllocsPerCall(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 43})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		m, err := Open(rma.Open(p), WithServers(1), WithBuckets(1024), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		if p.Rank() == 0 {
			p.Barrier() // the client is done measuring
			return
		}
		// a is present throughout; b's home bucket is on no chain a row
		// walks, so a Get of b misses after one snapshot.
		const a = int64(1)
		b := a + 1
		for m.home(b) == m.home(a) || m.home(b) == (m.home(a)+1)%m.total {
			b++
		}
		vals := [2][]byte{val(m, 1), val(m, 2)}
		cur := 0 // a holds vals[cur]
		if err := m.Put(a, vals[cur]); err != nil {
			t.Errorf("put: %v", err)
			panic("dht: put failed")
		}
		// Put insert inserts fresh keys, and Delete deletes them in the
		// same order: both rows make the same number of calls.
		inserted, deleted := int64(1<<20), int64(1<<20)
		errMismatch := errors.New("unexpected result")
		check := func(want, got bool, err error) error {
			if err == nil && got != want {
				err = errMismatch
			}
			return err
		}
		for _, row := range []struct {
			name string
			op   func() error
		}{
			{"get hit", func() error {
				v, ok, err := m.Get(a)
				return check(true, ok && bytes.Equal(v, vals[cur]), err)
			}},
			{"get miss", func() error { _, ok, err := m.Get(b); return check(false, ok, err) }},
			{"put insert", func() error { inserted++; return m.Put(inserted, vals[0]) }},
			{"put update", func() error { return m.Put(a, vals[cur]) }},
			{"cas hit", func() error {
				ok, err := m.CAS(a, vals[cur], vals[1-cur])
				if ok {
					cur = 1 - cur
				}
				return check(true, ok, err)
			}},
			{"cas miss", func() error { ok, err := m.CAS(a, vals[1-cur], vals[cur]); return check(false, ok, err) }},
			{"delete", func() error { deleted++; ok, err := m.Delete(deleted); return check(true, ok, err) }},
		} {
			var failed error
			got := testing.AllocsPerRun(50, func() {
				if err := row.op(); err != nil && failed == nil {
					failed = err
				}
			})
			t.Logf("%-30s %2.0f allocs/op", "dht "+row.name, got)
			if failed != nil {
				t.Errorf("%s: %v", row.name, failed)
			}
			if got != 0 {
				t.Errorf("%s costs %v allocs/op, want exactly 0", row.name, got)
			}
		}
		p.Barrier()
	})
}

// TestMapValueLivesUntilNextCall pins the lifetime rule of Get's value: it
// is a slice of the handle's own buffer, so the handle's next Get
// overwrites it, and CAS does not — it compares in a buffer of its own,
// so a value passed back as expect is compared as read, even when the
// bucket has moved on meanwhile.
func TestMapValueLivesUntilNextCall(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2, Seed: 47})
	runBounded(t, w, 20*time.Second, func(p *runtime.Proc) {
		m, err := Open(rma.Open(p), WithServers(1), WithBuckets(64), WithValueSize(8))
		if err != nil {
			t.Errorf("open: %v", err)
			panic("dht: open failed")
		}
		const a, c = int64(1), int64(2)
		if p.Rank() == 0 {
			p.Barrier() // rank 1 has read a
			if err := m.Put(a, val(m, 30)); err != nil {
				t.Errorf("put: %v", err)
			}
			p.Barrier()
			return
		}
		if err := errors.Join(m.Put(a, val(m, 10)), m.Put(c, val(m, 20))); err != nil {
			t.Errorf("put: %v", err)
			panic("dht: put failed")
		}
		get := func(key int64) []byte {
			v, ok, err := m.Get(key)
			if err != nil || !ok {
				t.Errorf("get %d: ok=%v err=%v", key, ok, err)
				panic("dht: get failed")
			}
			return v
		}
		first := get(a)
		if !bytes.Equal(first, val(m, 10)) {
			t.Errorf("get a = %x, want %x", first, val(m, 10))
		}
		second := get(c)
		if !bytes.Equal(first, val(m, 20)) || &first[0] != &second[0] {
			t.Errorf("after the next get the first value reads %x, want it overwritten with %x", first, val(m, 20))
		}
		expect := get(a)
		p.Barrier()
		p.Barrier() // rank 0 has put a new value under a
		if ok, err := m.CAS(a, expect, val(m, 40)); err != nil || ok {
			t.Errorf("CAS against a value a has left = %v, %v; want false", ok, err)
		}
		if v := get(a); !bytes.Equal(v, val(m, 30)) {
			t.Errorf("a = %x after a failed CAS, want %x", v, val(m, 30))
		}
	})
}
