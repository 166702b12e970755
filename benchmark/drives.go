package main

import (
	"fmt"
	gort "runtime"
	"runtime/debug"
	"time"

	"mpi3rma/internal/datatype"
	"mpi3rma/internal/memsim"
	"mpi3rma/internal/portals"
	"mpi3rma/internal/runtime"
	"mpi3rma/internal/serializer"
	"mpi3rma/internal/simnet"
	"mpi3rma/internal/vtime"
	"mpi3rma/rma"
)

// Layer drives time one exported function of one internal package in
// isolation, from the outside, with the shapes the workloads use. They do
// not depend on the workload, so every traced run reports them.

const (
	driveBatches   = 30                     // timed batches per .ns drive
	driveBatchTime = 500 * time.Microsecond // a batch grows until it takes this long
	driveSlowRuns  = 9                      // timed calls per .ms drive
	driveAllocRuns = 200                    // calls per .allocs drive
)

// sink keeps results the compiler could otherwise drop.
var sink any

type driver struct {
	v     map[string]float64
	scale float64
}

// ns reports the median over driveBatches batches of the mean time of one
// call to fn, in nanoseconds. The collector is off while it runs: how often
// it would cut in depends on the heap the previous drive left, which moved
// datatype.pack.b1k.ns between 40 and 99 us from one run to the next. What a
// call allocates is the .allocs drive's to report.
func (d *driver) ns(name string, fn func()) {
	gort.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		if time.Since(t0) >= time.Duration(float64(driveBatchTime)*d.scale) || per >= 1<<20 {
			break
		}
		per *= 2
	}
	times := make([]float64, driveBatches)
	for b := range times {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		times[b] = float64(time.Since(t0)) / float64(per)
	}
	d.v[name] = median(times)
}

// ms reports the median time of one call to fn, in milliseconds.
func (d *driver) ms(name string, fn func()) {
	times := make([]float64, driveSlowRuns)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = float64(time.Since(t0)) / 1e6
	}
	d.v[name] = median(times)
}

// allocs reports the heap allocations of one call to fn, in whole numbers as
// testing.AllocsPerRun does: the count over driveAllocRuns calls, divided
// and rounded down, so a stray allocation elsewhere in the process does not
// show. Allocations on other goroutines the call wakes are included.
func (d *driver) allocs(name string, fn func()) {
	fn()
	var m0, m1 gort.MemStats
	gort.ReadMemStats(&m0)
	for i := 0; i < driveAllocRuns; i++ {
		fn()
	}
	gort.ReadMemStats(&m1)
	d.v[name] = float64((m1.Mallocs - m0.Mallocs) / driveAllocRuns)
}

func (d *driver) both(prefix string, fn func()) {
	d.ns(prefix+".ns", fn)
	d.allocs(prefix+".allocs", fn)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// instruments are the session options whose cost per operation the
// telemetry drives measure, one at a time.
var instruments = []struct {
	name string
	opt  rma.SessionOption
}{
	{"metrics", rma.WithMetrics()},
	{"tracing", rma.WithTracing(1 << 16)},
	{"events", rma.WithEvents(0)},
	{"checker", rma.WithChecker()},
	// The flight recorder writes only when a link fails, which no workload
	// causes; the directory is where run.sh builds, inside the checkout.
	{"flight", rma.WithFlightRecorder("../.bench_build")},
}

// runDrives fills v with every drive's metrics.
func runDrives(v map[string]float64, seed int64, scale float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer drive: %v", r)
		}
	}()
	d := &driver{v: v, scale: scale}
	d.driveDatatype()
	d.driveMemsim()
	d.driveSimnet()
	d.drivePortals()
	d.driveSerializer()
	d.driveRuntime()
	if err := d.driveRmw(); err != nil {
		return err
	}
	return d.driveTelemetry(seed)
}

func (d *driver) driveDatatype() {
	for _, sh := range []shape{shapeB8, shapeB1k, shapeVec} {
		sh := sh
		mem := make([]byte, sh.extent())
		wire := make([]byte, datatype.PackedSize(sh.count, sh.dt))
		d.both("datatype.pack."+sh.name, func() {
			must(datatype.PackInto(wire, mem, sh.count, sh.dt, datatype.LittleEndian))
		})
		d.both("datatype.unpack."+sh.name, func() {
			must(datatype.Unpack(mem, wire, sh.count, sh.dt, datatype.LittleEndian))
		})
		d.both("datatype.compatible."+sh.name, func() {
			sink = datatype.Compatible(sh.count, sh.dt, sh.count, sh.dt)
		})
	}
}

func (d *driver) driveMemsim() {
	mem := memsim.New(memsim.Config{Size: 1 << 20})
	at := mem.MustAlloc(1024).Offset
	b8, b1k := make([]byte, 8), make([]byte, 1024)
	d.both("memsim.remote_write.b8", func() { must(mem.RemoteWrite(at, b8)) })
	d.both("memsim.remote_write.b1k", func() { must(mem.RemoteWrite(at, b1k)) })
	d.ns("memsim.remote_read.b1k.ns", func() { must(mem.RemoteRead(at, b1k)) })
	incr := func(cur []byte) { cur[0]++ }
	d.ns("memsim.update.w8.ns", func() { must(mem.Update(at, 8, incr)) })
	// One rank's memory as every workload's world builds it.
	d.ms("memsim.new.ms", func() { sink = memsim.New(memsim.Config{Size: runtime.DefaultMemSize}) })
	sink = nil
}

// driveSimnet sends on one endpoint and receives on the peer from the same
// goroutine: the cost of the network itself, without an agent's wakeup.
func (d *driver) driveSimnet() {
	net := simnet.New(simnet.Config{Ranks: 2, Ordered: true})
	defer net.Close()
	src, dst := net.Endpoint(0), net.Endpoint(1)
	sendRecv := func(payload []byte) func() {
		return func() {
			_, err := src.Send(0, &simnet.Message{Dst: 1, Payload: payload})
			must(err)
			if _, ok := dst.Recv(); !ok {
				panic("simnet: endpoint closed")
			}
		}
	}
	d.both("simnet.send_recv.b8", sendRecv(make([]byte, 8)))
	d.ns("simnet.send_recv.b1k.ns", sendRecv(make([]byte, 1024)))
}

// drivePortals puts 8 bytes with an acknowledgement and waits for the ACK event
// on the origin's event queue: two NIC agents and the full round trip.
func (d *driver) drivePortals() {
	net := simnet.New(simnet.Config{Ranks: 2, Ordered: true})
	var nics [2]*portals.NIC
	var mems [2]*memsim.Memory
	for i := range nics {
		mems[i] = memsim.New(memsim.Config{Size: 1 << 16})
		nics[i] = portals.NewNIC(net.Endpoint(i), mems[i], portals.Config{HardwareAcks: true})
	}
	defer func() {
		for _, n := range nics {
			n.Stop()
		}
		net.Close()
	}()
	const portal = 5
	nics[1].Expose(portal, nics[1].AttachMD(mems[1].MustAlloc(64), nil, portals.MDPut))
	eq := portals.NewEQ(0)
	md := nics[0].AttachMD(mems[0].MustAlloc(64), eq, 0)
	d.both("portals.md_put_ack.b8", func() {
		_, err := md.Put(nics[0].Now(), 0, 8, 1, portal, 0, true, 0)
		must(err)
		for eq.Wait().Type != portals.EvAck {
		}
	})
}

func (d *driver) driveSerializer() {
	q := serializer.NewApplyQueue()
	defer q.Close()
	ran := make(chan struct{}, 1)
	task := serializer.Task{Cost: 100 * time.Nanosecond, Fn: func(vtime.Time) { ran <- struct{}{} }}
	d.both("serializer.apply_queue", func() {
		q.Submit(task)
		<-ran
	})
	lock := serializer.NewLockState()
	grant := func(int, vtime.Time) {}
	d.ns("serializer.lock_cycle.ns", func() {
		lock.Acquire(0, 0, grant)
		must(lock.Release(0, 0))
	})
}

func (d *driver) driveRuntime() {
	d.ms("runtime.world_new.ms", func() { runtime.NewWorld(runtime.Config{Ranks: 4}).Close() })

	const per = 100
	w := runtime.NewWorld(runtime.Config{Ranks: 4})
	defer w.Close()
	times := make([]float64, driveBatches)
	must(w.Run(func(p *runtime.Proc) {
		for b := -1; b < driveBatches; b++ { // batch -1 warms up
			t0 := time.Now()
			for i := 0; i < per; i++ {
				p.Barrier()
			}
			if p.Rank() == 0 && b >= 0 {
				times[b] = float64(time.Since(t0)) / per
			}
		}
	}))
	d.v["runtime.barrier.ns"] = median(times)
}

// driveRmw times the two read-modify-write calls the dht and the queue are built
// on, rank 1 to a word on rank 0.
func (d *driver) driveRmw() error {
	w := runtime.NewWorld(runtime.Config{Ranks: 2})
	defer w.Close()
	return w.Run(func(p *runtime.Proc) {
		s := rma.Open(p)
		if p.Rank() == 0 {
			tm, _ := s.Expose(8)
			p.Send(1, 0, tm.Encode())
			p.Barrier()
			return
		}
		enc, _ := p.Recv(0, 0)
		tm, err := rma.DecodeTargetMem(enc)
		must(err)
		d.ns("rma.cas.ns", func() {
			_, err := s.CompareSwap(tm, 0, 0, 0)
			must(err)
		})
		d.ns("rma.fetch_add.ns", func() {
			_, err := s.FetchAdd(tm, 0, 1)
			must(err)
		})
		p.Barrier()
	})
}

// driveTelemetry reruns put_8b at a tenth of its size with one instrument on at a
// time; the tax is what the instrument adds to the plain run's wall time and
// allocations per put.
func (d *driver) driveTelemetry(seed int64) error {
	wl := findWorkload("put_8b")
	cost := func(extra ...rma.SessionOption) (ns, allocs float64, err error) {
		res, err := runPass(wl, passOpts{seed: seed, seconds: shortPassSeconds * d.scale, scale: shortPassScale * d.scale, extra: extra})
		if err != nil {
			return 0, 0, err
		}
		ph := res.phases[0]
		return 1e9 / ph.rate(), ratio(float64(ph.mallocs), float64(ph.ops())), nil
	}
	plainNS, plainAllocs, err := cost()
	if err != nil {
		return err
	}
	for _, ins := range instruments {
		ns, allocs, err := cost(ins.opt)
		if err != nil {
			return err
		}
		d.v["telemetry."+ins.name+".tax_ns_per_op"] = ns - plainNS
		d.v["telemetry."+ins.name+".tax_allocs_per_op"] = allocs - plainAllocs
	}
	return nil
}
