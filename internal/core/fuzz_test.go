package core

import (
	"testing"

	"mpi3rma/internal/datatype"
)

// FuzzDecodeTargetMem hardens the descriptor codec: no panics, and
// successful decodes re-encode identically (descriptors travel between
// ranks as user payload).
func FuzzDecodeTargetMem(f *testing.F) {
	f.Add(TargetMem{Owner: 0, Handle: 1, Size: 64, AddrBits: 64, Order: datatype.LittleEndian}.Encode())
	f.Add(TargetMem{Owner: 3, Handle: 99, Size: 1 << 20, AddrBits: 32, Order: datatype.BigEndian}.Encode())
	f.Add([]byte{})
	f.Add(make([]byte, encodedTargetMemLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		tm, err := DecodeTargetMem(data)
		if err != nil {
			return
		}
		if !tm.Valid() {
			t.Fatalf("decoder accepted an invalid descriptor: %+v", tm)
		}
		rt, err := DecodeTargetMem(tm.Encode())
		if err != nil || rt != tm {
			t.Fatalf("round trip changed the descriptor: %+v -> %+v (%v)", tm, rt, err)
		}
	})
}

// FuzzPutPayloadFrame hardens the put-head parser that every incoming put,
// get and batch member runs through, with and without an axpy scale.
func FuzzPutPayloadFrame(f *testing.F) {
	put, _ := new(Engine).newFramed(0, kPut, datatype.Contiguous(4, datatype.Int64), AccNone, 0, 32)
	axpy, _ := new(Engine).newFramed(0, kPut, datatype.Float64, AccAxpy, 2.5, 8)
	f.Add(put.Payload)
	f.Add(axpy.Payload)
	f.Add([]byte{0x02, 0x05, 0x00}) // an empty Struct, two bytes like a primitive: it bypasses the intern table
	f.Add([]byte{0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, acc := range []AccOp{AccNone, AccAxpy} {
			dt, _, rest, err := parsePutHead(data, acc)
			if err != nil {
				continue
			}
			if dt == nil {
				t.Fatal("nil type without error")
			}
			if len(rest) > len(data) {
				t.Fatal("rest longer than input")
			}
		}
	})
}
