package core

import (
	"sync"
	"testing"

	"mpi3rma/internal/datatype"
)

// TestDecodedTypesAreInterned: two origins that ship the same layout —
// two type values, one encoding — reach every target as one decoded Type
// value, through a single put's frame and through every member of a batch
// alike, so the target builds the layout's plan once. A primitive bypasses
// the table.
func TestDecodedTypesAreInterned(t *testing.T) {
	mk := func() datatype.Type { return datatype.Vector(3, 2, 7, datatype.Float32) }
	a, _ := new(Engine).newFramed(0, kPut, mk(), AccNone, 0, 24)
	b, _ := new(Engine).newFramed(1, kPut, mk(), AccNone, 0, 24)
	da, _, _, err := parsePutHead(a.Payload, AccNone)
	if err != nil {
		t.Fatal(err)
	}
	db, _, _, err := parsePutHead(b.Payload, AccNone)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("one encoding decoded to two values: %p and %p", da, db)
	}

	member := wireOp{handle: 1, tcount: 1, accOp: AccNone, tdt: mk(), wire: make([]byte, 24)}
	ops, err := decodeBatch(aggregate(t, 8, []wireOp{member, member, member, member, member}))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if op.tdt != da {
			t.Errorf("batch member %d decoded its own type value", i)
		}
	}

	p, _ := new(Engine).newFramed(0, kPut, datatype.Int64, AccNone, 0, 8)
	decodedTypes.mu.Lock()
	before := len(decodedTypes.types)
	decodedTypes.mu.Unlock()
	if dt, _, _, err := parsePutHead(p.Payload, AccNone); err != nil || dt != datatype.Int64 {
		t.Fatalf("primitive frame decoded to %v, %v", dt, err)
	}
	decodedTypes.mu.Lock()
	after := len(decodedTypes.types)
	decodedTypes.mu.Unlock()
	if after != before {
		t.Errorf("a primitive entered the table: %d entries, then %d", before, after)
	}
}

// TestTypeTableBound: a stream of distinct encodings never grows the
// table past maxTypeEntries; a new type arriving at a full table empties
// it and is kept, so a layout seen after the burst is interned again; an
// encoding longer than maxTypeEncLen is never kept but still decodes.
func TestTypeTableBound(t *testing.T) {
	var tab typeTable
	enc := func(i int) []byte {
		return datatype.Encode(datatype.Contiguous(i, datatype.Vector(2, 1, 3, datatype.Int32)))
	}
	for i := 1; i <= maxTypeEntries+64; i++ {
		dt, err := tab.decode(enc(i))
		if err != nil {
			t.Fatalf("encoding %d: %v", i, err)
		}
		if want := datatype.Contiguous(i, datatype.Vector(2, 1, 3, datatype.Int32)); dt.Name() != want.Name() {
			t.Fatalf("encoding %d decoded to %s, want %s", i, dt.Name(), want.Name())
		}
		if n := len(tab.types); n > maxTypeEntries {
			t.Fatalf("after %d encodings the table holds %d entries, bound is %d", i, n, maxTypeEntries)
		}
	}
	if n := len(tab.types); n != 64 {
		t.Errorf("table holds %d entries after emptying once, want 64", n)
	}
	if x, _ := tab.decode(enc(1)); x == nil {
		t.Fatal("a type evicted by the burst failed to decode")
	} else if y, _ := tab.decode(enc(1)); x != y {
		t.Error("a type evicted by the burst was not interned again")
	}

	var long typeTable
	blocklens, displs := make([]int, maxTypeEncLen), make([]int, maxTypeEncLen)
	for i := range displs {
		blocklens[i], displs[i] = 1, 2*i
	}
	big := datatype.Encode(datatype.Indexed(blocklens, displs, datatype.Byte))
	if len(big) <= maxTypeEncLen {
		t.Fatalf("test encoding is only %d bytes", len(big))
	}
	if _, err := long.decode(big); err != nil {
		t.Fatal(err)
	}
	if n := len(long.types); n != 0 {
		t.Errorf("a %d-byte encoding was kept", len(big))
	}
}

// TestTypeTableConcurrent: four goroutines decoding the same encodings at
// once, in different orders, all get one value per encoding (run it under
// -race).
func TestTypeTableConcurrent(t *testing.T) {
	const workers, kinds = 4, 32
	var tab typeTable
	encs := make([][]byte, kinds)
	for i := range encs {
		encs[i] = datatype.Encode(datatype.Vector(i+1, 1, 2, datatype.Float64))
	}
	got := make([][]datatype.Type, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]datatype.Type, kinds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range encs {
				i := (j + w*7) % kinds
				dt, err := tab.decode(encs[i])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				got[w][i] = dt
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range encs {
			if got[w][i] != got[0][i] {
				t.Errorf("encoding %d: worker %d got another value than worker 0", i, w)
			}
		}
	}
}
