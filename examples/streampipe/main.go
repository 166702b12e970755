// Streampipe: a producer/consumer byte stream over one-sided RMA — the
// fully event-driven shape that Select and OnDone enable.
//
// Rank 0 (the producer) streams fixed-size records into a circular ring
// of slots exposed by rank 1 (the consumer) with notified puts. Rank 1
// discovers arrivals with Select(OnApplied) — no receives, no polling
// loops — validates each record, and grants the producer fresh ring
// space with credit messages: a one-sided put of its cumulative consumed
// count into a cell the producer exposes, sent every few records. The
// producer stalls on Select(OnApplied) only when the credit window is
// exhausted, and tracks every in-flight record with an OnDone callback
// so asynchronous failures (and the high-water in-flight mark) are
// observed without ever blocking.
//
// Flow control invariant: record i is written into slot i%slots only
// after the consumer's credit covers i-slots, i.e. the consumer has read
// that slot's previous occupant. Credits every `creditEvery` records with
// creditEvery <= slots-1 keep the pipe deadlock-free.
//
// Run with:
//
//	go run ./examples/streampipe
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync/atomic"

	"mpi3rma/internal/runtime"
	"mpi3rma/rma"
)

const (
	records     = 64 // records streamed end to end
	recBytes    = 32 // bytes per record (8-byte seq header + payload)
	slots       = 8  // ring capacity in records
	creditEvery = 4  // consumer grants credit every this many records
)

func main() {
	world := runtime.NewWorld(runtime.Config{Ranks: 2})
	defer world.Close()

	err := world.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		if p.Rank() == 0 {
			produce(p, s)
		} else {
			consume(p, s)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}

func produce(p *runtime.Proc, s *rma.Session) {
	// The producer exposes the 8-byte credit cell the consumer writes its
	// cumulative consumed count into, and receives the ring descriptor.
	creditTM, creditRegion := s.Expose(8)
	p.Send(1, 1, creditTM.Encode())
	enc, _ := p.Recv(1, 0)
	ring, err := rma.DecodeTargetMem(enc)
	if err != nil {
		log.Fatal(err)
	}

	var inflight, maxInflight atomic.Int64
	track := func(req *rma.Request) {
		if n := inflight.Add(1); n > maxInflight.Load() {
			maxInflight.Store(n)
		}
		req.OnDone(func(err error) {
			if err != nil {
				log.Fatal(err)
			}
			inflight.Add(-1)
		})
	}

	buf := p.Alloc(recBytes)
	payload := make([]byte, recBytes)
	credits := int64(slots) // ring starts empty: slots records of headroom
	creditMsgs := int64(0)

	for i := 0; i < records; i++ {
		// Out of window: wait for the next credit message — one Select,
		// no spinning — then read the granted count from the local cell.
		for int64(i) >= credits {
			_, ev, err := s.Select(rma.OnApplied(1, creditMsgs+1))
			if err != nil {
				log.Fatal(err)
			}
			creditMsgs = ev.Count
			consumed := int64(binary.LittleEndian.Uint64(p.ReadLocal(creditRegion, 0, 8)))
			credits = consumed + slots
		}
		binary.LittleEndian.PutUint64(payload, uint64(i))
		for j := 8; j < recBytes; j++ {
			payload[j] = byte(i)
		}
		p.WriteLocal(buf, 0, payload)
		// Ordering matters: the consumer waits on the cumulative applied
		// count, and count i+1 must mean records 0..i landed — not any
		// i+1 of the in-flight window.
		req, err := s.Put(buf, recBytes, rma.Byte, ring, (i%slots)*recBytes,
			rma.WithNotify(), rma.WithRemoteComplete(), rma.WithOrdering())
		if err != nil {
			log.Fatal(err)
		}
		track(req)
	}
	// Drain: remote-complete everything still flying, then report.
	if err := s.Complete(1); err != nil {
		log.Fatal(err)
	}
	p.Barrier()
	fmt.Printf("streampipe: %d records x %d B through a %d-slot ring\n", records, recBytes, slots)
	fmt.Printf("producer: stalled through %d credit messages, max %d records in flight\n", creditMsgs, maxInflight.Load())
	fmt.Printf("virtual time at finish: %v\n", p.Now())
}

func consume(p *runtime.Proc, s *rma.Session) {
	// The consumer exposes the ring and receives the credit-cell
	// descriptor.
	ringTM, ringRegion := s.Expose(slots * recBytes)
	p.Send(0, 0, ringTM.Encode())
	enc, _ := p.Recv(0, 1)
	creditTM, err := rma.DecodeTargetMem(enc)
	if err != nil {
		log.Fatal(err)
	}

	credit := p.Alloc(8)
	var checksum uint64
	for i := 0; i < records; i++ {
		// Wait until record i has landed: the producer's cumulative
		// notified-put count reaching i+1 is exactly that.
		if _, _, err := s.Select(rma.OnApplied(0, int64(i+1))); err != nil {
			log.Fatal(err)
		}
		rec := p.ReadLocal(ringRegion, (i%slots)*recBytes, recBytes)
		if seq := binary.LittleEndian.Uint64(rec); seq != uint64(i) {
			log.Fatalf("record %d carries seq %d — ring overwritten past its credit", i, seq)
		}
		for j := 8; j < recBytes; j++ {
			if rec[j] != byte(i) {
				log.Fatalf("record %d corrupt at byte %d", i, j)
			}
			checksum += uint64(rec[j])
		}
		// Grant ring space back: cumulative consumed count, one-sided,
		// every creditEvery records and at the end.
		if consumed := i + 1; consumed%creditEvery == 0 || consumed == records {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(consumed))
			p.WriteLocal(credit, 0, b[:])
			// Ordered so a newer (larger) grant is never overwritten by
			// an older one still in flight.
			req, err := s.Put(credit, 8, rma.Byte, creditTM, 0, rma.WithNotify(), rma.WithOrdering())
			if err != nil {
				log.Fatal(err)
			}
			req.OnDone(func(err error) {
				if err != nil {
					log.Fatal(err)
				}
			})
		}
	}
	if err := s.Complete(0); err != nil {
		log.Fatal(err)
	}
	var want uint64
	for i := 0; i < records; i++ {
		want += uint64(recBytes-8) * uint64(byte(i))
	}
	if checksum != want {
		log.Fatalf("stream checksum %d, want %d", checksum, want)
	}
	p.Barrier()
	fmt.Printf("consumer: %d records validated, checksum ok\n", records)
}
