package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/runtime"
)

// encodeTestBatch mirrors flushTarget's aggregate framing for codec tests
// and fuzz seeds.
func encodeTestBatch(ops []wireOp) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		flags := byte(0)
		if op.atomic {
			flags |= batchFlagAtomic
		}
		buf = append(buf, flags, byte(op.accOp))
		buf = binary.AppendUvarint(buf, op.handle)
		buf = binary.AppendUvarint(buf, uint64(op.disp))
		buf = binary.AppendUvarint(buf, uint64(op.tcount))
		if op.accOp == AccAxpy {
			var s [8]byte
			binary.LittleEndian.PutUint64(s[:], math.Float64bits(op.scale))
			buf = append(buf, s[:]...)
		}
		dt := datatype.Encode(op.tdt)
		buf = binary.AppendUvarint(buf, uint64(len(dt)))
		buf = append(buf, dt...)
		buf = binary.AppendUvarint(buf, uint64(len(op.wire)))
		buf = append(buf, op.wire...)
	}
	return buf
}

// TestBatchCodecRoundTrip: the aggregate framing decodes to the member
// operations it encoded, including the axpy scale and atomic flags.
func TestBatchCodecRoundTrip(t *testing.T) {
	in := []wireOp{
		{handle: 1, disp: 0, tcount: 4, accOp: AccNone, tdt: datatype.Byte, wire: []byte{1, 2, 3, 4}},
		{handle: 9, disp: 128, tcount: 2, accOp: AccSum, atomic: true, tdt: datatype.Int64, wire: make([]byte, 16)},
		{handle: 2, disp: 8, tcount: 1, accOp: AccAxpy, scale: 2.5, tdt: datatype.Float64, wire: make([]byte, 8)},
	}
	out, err := decodeBatch(encodeTestBatch(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d ops, want %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i], in[i]
		if got.handle != want.handle || got.disp != want.disp || got.tcount != want.tcount ||
			got.accOp != want.accOp || got.atomic != want.atomic {
			t.Errorf("op %d: got %+v want %+v", i, got, want)
		}
		if want.accOp == AccAxpy && got.scale != want.scale {
			t.Errorf("op %d: scale %v, want %v", i, got.scale, want.scale)
		}
		if string(got.wire) != string(want.wire) {
			t.Errorf("op %d: wire data changed", i)
		}
	}

	// The degenerate empty aggregate is valid and decodes to zero ops.
	if ops, err := decodeBatch(encodeTestBatch(nil)); err != nil || len(ops) != 0 {
		t.Errorf("empty batch: ops=%d err=%v", len(ops), err)
	}
	// Trailing garbage is rejected.
	if _, err := decodeBatch(append(encodeTestBatch(in), 0xEE)); err == nil {
		t.Error("decoder accepted trailing bytes")
	}
}

// FuzzBatchUnpack hardens the aggregate-message unpacker the target runs
// on every batched message: it must never panic, and whatever it accepts
// must be structurally sound.
func FuzzBatchUnpack(f *testing.F) {
	f.Add(encodeTestBatch(nil))
	f.Add(encodeTestBatch([]wireOp{
		{handle: 1, disp: 0, tcount: 4, accOp: AccNone, tdt: datatype.Byte, wire: []byte{1, 2, 3, 4}},
	}))
	f.Add(encodeTestBatch([]wireOp{
		{handle: 7, disp: 24, tcount: 3, accOp: AccSum, atomic: true, tdt: datatype.Int32, wire: make([]byte, 12)},
		{handle: 7, disp: 0, tcount: 1, accOp: AccAxpy, scale: -1, tdt: datatype.Float64, wire: make([]byte, 8)},
	}))
	f.Add([]byte{})
	f.Add([]byte{0x05})             // claims 5 ops, provides none
	f.Add([]byte{0x01, 0x00, 0xFF}) // unknown accumulate op

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeBatch(data)
		if err != nil {
			return
		}
		for i, op := range ops {
			if op.disp < 0 || op.tcount < 0 {
				t.Fatalf("op %d: negative geometry %+v survived decode", i, op)
			}
			if op.tdt == nil {
				t.Fatalf("op %d: nil datatype survived decode", i)
			}
			if len(op.wire) > len(data) {
				t.Fatalf("op %d: wire slice larger than the input", i)
			}
		}
	})
}

// TestFlushEmptyRings: Flush (and a directed flushTarget) with nothing
// pending sends no aggregate and is safe with batching both on and off.
func TestFlushEmptyRings(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		for _, batch := range []int{0, 8} {
			e := Attach(p, Options{BatchOps: batch})
			e.Flush()
			e.flushTarget(1 - p.Rank())
			if n := e.Batches.Value(); n != 0 {
				t.Errorf("empty flush sent %d aggregates", n)
			}
		}
		p.Barrier()
	})
}

// TestCompleteNoProbeWhenNothingOutstanding is the regression test for the
// zero-outstanding fast path: the first Complete after unbatched traffic
// pays its probe round-trip, but a second Complete with nothing new
// outstanding answers from the delivery counter that probe brought home —
// no second probe.
func TestCompleteNoProbeWhenNothingOutstanding(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(1)
			p.Send(1, 0, tm.Encode())
			// The collective's barrier orders this after both of rank 1's
			// Complete calls: exactly the first should have probed us.
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			if got := p.Mem().Snapshot(region.Offset, 1)[0]; got != 7 {
				t.Errorf("target byte %d, want 7", got)
			}
			if n := e.Probes.Value(); n != 1 {
				t.Errorf("target answered %d probes, want 1 (re-Complete must not re-probe)", n)
			}
			return
		}

		// Never targeted anyone: Complete must return without traffic.
		before := e.OpsIssued.Value()
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("idle complete: %v", err)
		}
		if n := e.OpsIssued.Value(); n != before {
			t.Errorf("idle Complete issued %d operations", n-before)
		}

		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(1)
		p.WriteLocal(src, 0, []byte{7})
		if _, err := e.Put(src, 1, datatype.Byte, tm, 0, 1, datatype.Byte, 0, comm, AttrNone); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		if n := e.FastPaths.Value(); n != 0 {
			t.Error("first Complete of a plain put should have needed the probe")
		}
		// The probe's answer carried the delivery counter: a second
		// Complete with nothing new outstanding answers locally.
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("re-complete: %v", err)
		}
		if n := e.FastPaths.Value(); n < 1 {
			t.Error("second Complete did not take the counter fast path")
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
}

// TestBatchMixedAtomicity: one aggregate carrying both plain puts and
// atomic accumulates applies every member through its own serialization
// class, and Complete finishes on the batch notification without probing.
func TestBatchMixedAtomicity(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{BatchOps: 8})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(16)
			p.Send(1, 0, tm.Encode())
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			buf := p.Mem().Snapshot(region.Offset, 16)
			if got := int64(binary.LittleEndian.Uint64(buf)); got != 11 {
				t.Errorf("plain-put slot holds %d, want 11", got)
			}
			if got := int64(binary.LittleEndian.Uint64(buf[8:])); got != 5 {
				t.Errorf("atomic-accumulate slot holds %d, want 5", got)
			}
			if n := e.Probes.Value(); n != 0 {
				t.Errorf("target answered %d probes, want 0 (notified completion)", n)
			}
			return
		}

		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		write := func(v int64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			p.WriteLocal(src, 0, b[:])
		}
		// Non-atomic puts and atomic accumulates interleaved in one ring.
		write(10)
		if _, err := e.Put(src, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrNone); err != nil {
			t.Fatalf("put: %v", err)
		}
		write(2)
		if _, err := e.Accumulate(AccSum, src, 1, datatype.Int64, tm, 8, 1, datatype.Int64, 0, comm, AttrAtomic); err != nil {
			t.Fatalf("atomic accumulate: %v", err)
		}
		write(3)
		if _, err := e.Accumulate(AccSum, src, 1, datatype.Int64, tm, 8, 1, datatype.Int64, 0, comm, AttrAtomic); err != nil {
			t.Fatalf("atomic accumulate: %v", err)
		}
		write(11)
		if _, err := e.Put(src, 1, datatype.Int64, tm, 0, 1, datatype.Int64, 0, comm, AttrNone); err != nil {
			t.Fatalf("put: %v", err)
		}

		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		if got := e.Batches.Value(); got != 1 {
			t.Errorf("sent %d aggregates, want 1", got)
		}
		if got := e.BatchedOps.Value(); got != 4 {
			t.Errorf("%d ops rode aggregates, want 4", got)
		}
		if e.FastPaths.Value() < 1 {
			t.Error("batched Complete did not take the counter fast path")
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
}

// TestBatchSevenWriterContention: seven origins batching atomic
// accumulates at one target concurrently — ring fill/flush under
// contention, serializer correctness, and notified completion for every
// writer.
func TestBatchSevenWriterContention(t *testing.T) {
	const (
		writers = 7
		opsEach = 16
		perRing = 4
	)
	w := newWorld(t, runtime.Config{Ranks: writers + 1})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{BatchOps: perRing})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, region := e.ExposeNew(writers * 8)
			for r := 1; r <= writers; r++ {
				p.Send(r, 0, tm.Encode())
			}
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			buf := p.Mem().Snapshot(region.Offset, writers*8)
			for r := 1; r <= writers; r++ {
				got := int64(binary.LittleEndian.Uint64(buf[(r-1)*8:]))
				if got != opsEach {
					t.Errorf("writer %d slot holds %d, want %d", r, got, opsEach)
				}
			}
			if n := e.Probes.Value(); n != 0 {
				t.Errorf("target answered %d probes, want 0 (notified completion)", n)
			}
			return
		}

		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		var one [8]byte
		binary.LittleEndian.PutUint64(one[:], 1)
		p.WriteLocal(src, 0, one[:])
		disp := (p.Rank() - 1) * 8
		for i := 0; i < opsEach; i++ {
			if _, err := e.Accumulate(AccSum, src, 1, datatype.Int64, tm, disp, 1, datatype.Int64, 0, comm, AttrAtomic); err != nil {
				t.Fatalf("accumulate %d: %v", i, err)
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		if got := e.Batches.Value(); got != opsEach/perRing {
			t.Errorf("sent %d aggregates, want %d", got, opsEach/perRing)
		}
		if got := e.BatchedOps.Value(); got != opsEach {
			t.Errorf("%d ops rode aggregates, want %d", got, opsEach)
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
}

// TestBatchRemoteCompleteMember: an AttrRemoteComplete member of a batch
// completes only once the batch notification is back, and errors from the
// engine still classify via the sentinel taxonomy.
func TestBatchRemoteCompleteMember(t *testing.T) {
	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{BatchOps: 4})
		comm := p.Comm()
		if p.Rank() == 0 {
			tm, _ := e.ExposeNew(8)
			p.Send(1, 0, tm.Encode())
			if err := e.CompleteCollective(comm); err != nil {
				t.Errorf("complete collective: %v", err)
			}
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, _ := DecodeTargetMem(enc)
		src := p.Alloc(8)
		req, err := e.Put(src, 8, datatype.Byte, tm, 0, 8, datatype.Byte, 0, comm, AttrRemoteComplete)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		if req.Test() {
			t.Error("remote-complete member done before its ring flushed")
		}
		e.Flush()
		req.Wait()
		if err := req.Err(); err != nil {
			t.Errorf("remote-complete member failed: %v", err)
		}

		// Bounds violations surface as ErrBounds even on the batch path.
		if _, err := e.Put(src, 8, datatype.Byte, tm, 9999, 8, datatype.Byte, 0, comm, AttrNone); !errors.Is(err, ErrBounds) {
			t.Errorf("out-of-bounds put returned %v, want ErrBounds", err)
		}
		if err := e.CompleteCollective(comm); err != nil {
			t.Errorf("complete collective: %v", err)
		}
	})
}
