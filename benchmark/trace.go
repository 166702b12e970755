package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"mpi3rma/internal/vtime"
)

// callKind names one kind of call the benchmark makes into the program. In a
// traced pass every such call is a span, recorded from the outside: the
// program itself is not instrumented.
type callKind uint8

const (
	kRound callKind = iota // one rank's share of a measured round; parent of the rest
	kPut
	kGet
	kComplete
	kBarrier
	kDhtGet
	kDhtPut
	kEnqueue
	kDequeue
	numKinds
)

var kindInfo = [numKinds]struct{ name, layer string }{
	kRound:    {"round", "benchmark"},
	kPut:      {"rma.put", "rma"},
	kGet:      {"rma.get", "rma"},
	kComplete: {"rma.complete", "rma"},
	kBarrier:  {"runtime.barrier", "runtime"},
	kDhtGet:   {"dht.get", "dht"},
	kDhtPut:   {"dht.put", "dht"},
	kEnqueue:  {"dht.queue.enqueue", "dht.queue"},
	kDequeue:  {"dht.queue.dequeue", "dht.queue"},
}

// span is one timed call. Times are nanoseconds: wall since the world was
// built, model on the rank's virtual clock. Ids count per rank from 1;
// parent 0 means none.
type span struct {
	kind       callKind
	rank       uint8
	id, parent int32
	wall0      int64
	wall1      int64
	model0     int64
	model1     int64
}

func (c *rank) initTrace(spanCap int) {
	for k := range c.wall {
		c.wall[k] = newRecorder()
		c.vt[k] = newRecorder()
	}
	c.spans = make([]span, 0, spanCap)
}

func (c *rank) addSpan(k callKind, parent int32, t stamp, wallEnd time.Time, vtEnd vtime.Time) int32 {
	if len(c.spans) == cap(c.spans) {
		return 0
	}
	id := int32(len(c.spans) + 1)
	c.spans = append(c.spans, span{
		kind: k, rank: uint8(c.id), id: id, parent: parent,
		wall0: int64(t.wall.Sub(c.w.start)), wall1: int64(wallEnd.Sub(c.w.start)),
		model0: int64(t.vt), model1: int64(vtEnd),
	})
	return id
}

func (c *rank) traceCall(k callKind, t stamp, vtEnd vtime.Time) {
	now := time.Now()
	d := now.Sub(t.wall)
	c.wall[k].add(int64(d))
	c.vt[k].add(int64(vtEnd - t.vt))
	if k != kBarrier {
		c.inCalls += d
	}
	c.addSpan(k, c.round, t, now, vtEnd)
}

// beginRound reserves the round's span so its children can name it.
func (c *rank) beginRound() {
	c.round = c.addSpan(kRound, 0, stamp{}, time.Time{}, 0)
}

// endRound closes the round span. The loop time of an issuing rank that is
// not inside a timed call is the harness's own: generating inputs, checking
// outputs, reading clocks.
func (c *rank) endRound(t stamp, issued bool) {
	now := time.Now()
	if issued {
		c.inLoop += now.Sub(t.wall)
	}
	if c.round > 0 {
		s := &c.spans[c.round-1]
		s.wall0, s.wall1 = int64(t.wall.Sub(c.w.start)), int64(now.Sub(c.w.start))
		s.model0, s.model1 = int64(t.vt), int64(c.p.Now())
	}
	c.round = 0
}

func (r *passResult) mergeTrace(c *rank) {
	for k := range r.wall {
		if r.wall[k] == nil {
			r.wall[k], r.vt[k] = newRecorder(), newRecorder()
		}
		r.wall[k].merge(c.wall[k])
		r.vt[k].merge(c.vt[k])
	}
	r.inCalls += c.inCalls
	r.inLoop += c.inLoop
	r.spans = append(r.spans, c.spans...)
}

// spanJSON is the spans.json record. Self time is the span's wall time minus
// that of the spans naming it as parent.
type spanJSON struct {
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	Workload   string `json:"workload"`
	Rank       int    `json:"rank"`
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent"`
	WallStart  int64  `json:"wall_start"`
	WallEnd    int64  `json:"wall_end"`
	ModelStart int64  `json:"model_start"`
	ModelEnd   int64  `json:"model_end"`
	SelfWall   int64  `json:"self_wall"`
}

// writeSpans writes the spans a traced pass kept. Ids are made unique
// across ranks as rank<<32 | per-rank id.
func writeSpans(dir, workload string, spans []span) error {
	children := make(map[int64]int64)
	gid := func(rank uint8, id int32) int64 {
		if id == 0 {
			return 0
		}
		return int64(rank)<<32 | int64(id)
	}
	for _, s := range spans {
		children[gid(s.rank, s.parent)] += s.wall1 - s.wall0
	}
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		id := gid(s.rank, s.id)
		out[i] = spanJSON{
			Name: kindInfo[s.kind].name, Layer: kindInfo[s.kind].layer, Workload: workload,
			Rank: int(s.rank), ID: id, Parent: gid(s.rank, s.parent),
			WallStart: s.wall0, WallEnd: s.wall1, ModelStart: s.model0, ModelEnd: s.model1,
			SelfWall: s.wall1 - s.wall0 - children[id],
		}
	}
	return writeJSON(filepath.Join(dir, "spans-"+workload+".json"), out)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
