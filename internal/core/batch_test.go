package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
)

// aggregate frames ops through an issue ring bounded at max members —
// the member encoder the issue path packs with — and returns the sealed
// aggregate payload.
func aggregate(t testing.TB, max int, ops []wireOp) []byte {
	t.Helper()
	r := issueRing{max: max}
	for i := range ops {
		op := &ops[i]
		if err := r.add(op, nil, len(op.wire), func(wire []byte) error { copy(wire, op.wire); return nil }); err != nil {
			t.Fatalf("add member %d: %v", i, err)
		}
	}
	return r.seal()
}

// codecOps covers every field a member frame carries: a plain put, an
// atomic accumulate, an axpy with its scale, an ordered member and a
// strided derived type.
func codecOps() []wireOp {
	return []wireOp{
		{handle: 1, disp: 0, tcount: 4, accOp: AccNone, tdt: datatype.Byte, wire: []byte{1, 2, 3, 4}},
		{handle: 9, disp: 128, tcount: 2, accOp: AccSum, atomic: true, tdt: datatype.Int64, wire: make([]byte, 16)},
		{handle: 2, disp: 8, tcount: 1, accOp: AccAxpy, scale: 2.5, tdt: datatype.Float64, wire: make([]byte, 8)},
		{handle: 3, disp: 300, tcount: 1, accOp: AccNone, ordered: true, tdt: datatype.Int32, wire: []byte{9, 8, 7, 6}},
		{handle: 4, disp: 1 << 20, tcount: 1, accOp: AccMax, tdt: datatype.Vector(8, 1, 2, datatype.Int64), wire: make([]byte, 64)},
	}
}

// TestBatchCodecRoundTrip: the aggregate the issue ring builds decodes to
// the member operations it framed, field for field — whether the count
// fills the ring's reservation or a wider reservation (a larger BatchOps)
// has to close up.
func TestBatchCodecRoundTrip(t *testing.T) {
	in := codecOps()
	in[4].wire[0] = 0x5A
	for _, max := range []int{len(in), 1 << 20} {
		out, err := decodeBatch(aggregate(t, max, in))
		if err != nil {
			t.Fatalf("max %d: decode: %v", max, err)
		}
		if len(out) != len(in) {
			t.Fatalf("max %d: decoded %d ops, want %d", max, len(out), len(in))
		}
		for i := range in {
			got, want := out[i], in[i]
			if want.accOp != AccAxpy {
				want.scale = 1
			}
			if got.handle != want.handle || got.disp != want.disp || got.tcount != want.tcount ||
				got.accOp != want.accOp || got.atomic != want.atomic || got.ordered != want.ordered ||
				got.scale != want.scale {
				t.Errorf("max %d: op %d: got %+v want %+v", max, i, got, want)
			}
			if string(datatype.Encode(got.tdt)) != string(datatype.Encode(want.tdt)) {
				t.Errorf("max %d: op %d: type %s, want %s", max, i, got.tdt.Name(), want.tdt.Name())
			}
			if string(got.wire) != string(want.wire) {
				t.Errorf("max %d: op %d: wire data changed", max, i)
			}
		}
	}

	// A member whose data cannot be packed leaves the ring as it was.
	r := issueRing{max: 8}
	good := in[0]
	for i, fail := range []bool{false, true, false} {
		err := r.add(&good, nil, len(good.wire), func(wire []byte) error {
			if fail {
				return errors.New("injected pack failure")
			}
			copy(wire, good.wire)
			return nil
		})
		if (err != nil) != fail {
			t.Fatalf("add %d: err %v", i, err)
		}
	}
	if out, err := decodeBatch(r.seal()); err != nil || len(out) != 2 || string(out[1].wire) != string(good.wire) {
		t.Errorf("after a failed pack the aggregate decodes to %d members (err %v), want the 2 that packed", len(out), err)
	}

	// The degenerate empty aggregate is valid and decodes to zero ops.
	if ops, err := decodeBatch([]byte{0}); err != nil || len(ops) != 0 {
		t.Errorf("empty batch: ops=%d err=%v", len(ops), err)
	}
	// Trailing garbage is rejected.
	if _, err := decodeBatch(append(aggregate(t, len(in), in), 0xEE)); err == nil {
		t.Error("decoder accepted trailing bytes")
	}
}

// FuzzBatchUnpack hardens the aggregate-message unpacker the target runs
// on every batched message: it must never panic, and whatever it accepts
// must be structurally sound.
func FuzzBatchUnpack(f *testing.F) {
	ops := codecOps()
	f.Add([]byte{0}) // the empty aggregate
	f.Add(aggregate(f, 8, ops[:1]))
	f.Add(aggregate(f, 8, ops[1:3]))
	f.Add([]byte{})
	f.Add([]byte{0x05})             // claims 5 ops, provides none
	f.Add([]byte{0x01, 0x00, 0xFF}) // unknown accumulate op
	f.Add(aggregate(f, 8, ops[3:]))
	f.Add(aggregate(f, 1<<20, ops))

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

// TestBatchWireSizePinned pins what a fixed batched sequence puts on the
// modelled wire: eleven puts and accumulates of mixed sizes — one axpy,
// one atomic, one ordered, one remote-complete, one strided derived type —
// ride a BatchOps 8 ring as one full aggregate and one flushed by
// Complete. The aggregate layout is part of the model: every simnet byte
// and message is charged time, so the totals must not move when the
// batching code does. The target's bytes are checked too.
func TestBatchWireSizePinned(t *testing.T) {
	const (
		wantBytes = 307
		wantMsgs  = 7
	)
	vec := datatype.Vector(8, 1, 2, datatype.Int64)
	type step struct {
		acc    AccOp // AccNone for a put
		disp   int
		count  int
		dt     datatype.Type
		attrs  Attr
		expect func(want, src []byte)
	}
	copyRuns := func(disp, count int, dt datatype.Type) func(want, src []byte) {
		return func(want, src []byte) {
			datatype.WalkN(count, dt, func(off, n int, k datatype.Kind) {
				copy(want[disp+off:disp+off+n*k.Width()], src[disp+off:])
			})
		}
	}
	steps := []step{
		{AccNone, 0, 1, datatype.Byte, AttrNone, nil},
		{AccNone, 8, 1, datatype.Int64, AttrNone, nil},
		{AccNone, 16, 24, datatype.Byte, AttrNone, nil},
		{AccNone, 40, 3, datatype.Int32, AttrNone, nil},
		{AccAxpy, 56, 2, datatype.Float64, AttrNone, func(want, _ []byte) {
			binary.LittleEndian.PutUint64(want[56:], math.Float64bits(1))
			binary.LittleEndian.PutUint64(want[64:], math.Float64bits(2))
		}},
		{AccNone, 128, 1, vec, AttrNone, nil},
		{AccSum, 72, 1, datatype.Int64, AttrAtomic, nil},
		{AccNone, 80, 1, datatype.Int64, AttrOrdering, nil},
		{AccNone, 88, 2, datatype.Byte, AttrNone, nil},
		{AccNone, 96, 1, datatype.Int64, AttrRemoteComplete, nil},
		{AccNone, 104, 16, datatype.Byte, AttrNone, nil},
	}
	const size = 256
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	binary.LittleEndian.PutUint64(src[56:], math.Float64bits(2))
	binary.LittleEndian.PutUint64(src[64:], math.Float64bits(4))
	want := make([]byte, size)
	for _, s := range steps {
		if s.expect == nil {
			s.expect = copyRuns(s.disp, s.count, s.dt)
		}
		s.expect(want, src)
	}

	w := newWorld(t, runtime.Config{Ranks: 2})
	runBounded(t, w, time.Minute, func(p *runtime.Proc) {
		e := Attach(p, Options{BatchOps: 8})
		comm := p.Comm()
		tm := shipTM(p, e, size)
		if p.Rank() == 0 {
			p.Barrier()
			exp := e.lookupExposure(tm.Handle)
			if got := p.Mem().Snapshot(exp.region.Offset, size); string(got) != string(want) {
				t.Errorf("target bytes\n got %v\nwant %v", got, want)
			}
			return
		}
		region := p.Alloc(size)
		p.WriteLocal(region, 0, src)
		for i, s := range steps {
			origin := memsim.Region{Offset: region.Offset + s.disp, Size: size - s.disp}
			var err error
			switch s.acc {
			case AccNone:
				_, err = e.Put(origin, s.count, s.dt, tm, s.disp, s.count, s.dt, 0, comm, s.attrs)
			case AccAxpy:
				_, err = e.AccumulateAxpy(0.5, origin, s.count, s.dt, tm, s.disp, s.count, s.dt, 0, comm, s.attrs)
			default:
				_, err = e.Accumulate(s.acc, origin, s.count, s.dt, tm, s.disp, s.count, s.dt, 0, comm, s.attrs)
			}
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if err := e.Complete(comm, 0); err != nil {
			t.Errorf("complete: %v", err)
		}
		if got := e.Batches.Value(); got != 2 {
			t.Errorf("sent %d aggregates, want 2", got)
		}
		p.Barrier()
	})
	if got, gotMsgs := w.Net().Bytes.Value(), w.Net().Msgs.Value(); got != wantBytes || gotMsgs != wantMsgs {
		t.Errorf("wire carried %d bytes in %d messages, want %d in %d", got, gotMsgs, wantBytes, wantMsgs)
	}
}
