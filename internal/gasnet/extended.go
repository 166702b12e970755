package gasnet

import (
	"fmt"

	"mpi3rma/internal/memsim"
	"mpi3rma/internal/runtime"
)

// Extended API: contiguous Put and Get into/out of the remote segment
// (gasnet_put / gasnet_get and their _nb variants). Per the paper, this is
// all the GASNet RMA specification offers — no accumulate, no
// noncontiguous transfers — which is exactly the gap the strawman's
// datatype-carrying operations close.
//
// Puts are long AMs handled by an internal deposit handler that replies
// for completion; gets are short AMs whose handler replies with the data.
// The internal handler indices live at the top of the table.

const (
	// hdlPut is the internal extended-API put handler index.
	hdlPut uint8 = 255
	// hdlGet is the internal extended-API get handler index.
	hdlGet uint8 = 254
)

// Handle tracks a nonblocking extended-API operation.
type Handle struct {
	g *GASNet
	w *opWait
	// get destination, filled on completion
	dst    memsim.Region
	dstOff int
	isGet  bool
}

// Wait blocks until the operation completes (gasnet_wait_syncnb).
func (h *Handle) Wait() error {
	if h == nil || h.w == nil {
		return nil
	}
	h.g.proc.Park(h.w.done, 0)
	h.g.proc.NIC().CPU().AdvanceTo(h.w.at)
	if h.isGet {
		if h.w.data == nil {
			return fmt.Errorf("gasnet: get failed at the target")
		}
		if err := h.g.proc.Mem().RemoteWrite(h.dst.Offset+h.dstOff, h.w.data); err != nil {
			return err
		}
	}
	return nil
}

// Try reports whether the operation has completed without blocking
// (gasnet_try_syncnb); completion side effects run when it returns true.
func (h *Handle) Try() (bool, error) {
	if h == nil || h.w == nil {
		return true, nil
	}
	if h.w.done.Rings() == 0 {
		return false, nil
	}
	return true, h.Wait()
}

// initExtended registers the internal extended-API handlers; Attach calls
// it on every rank so puts and gets can target any peer.
func (g *GASNet) initExtended() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.handlers[hdlPut] = func(tok *Token, payload []byte, args [MaxArgs]uint64) {
		// The long-AM machinery already deposited the payload into the
		// segment; the handler only confirms.
		tok.Reply(hdlPut, nil, [MaxArgs]uint64{uint64(len(payload)), 0})
	}
	g.handlers[hdlGet] = func(tok *Token, payload []byte, args [MaxArgs]uint64) {
		off, n := int(args[0]), int(args[1])
		g.mu.Lock()
		seg, ok := g.segment, g.segSet
		g.mu.Unlock()
		if !ok || !seg.Contains(off, n) {
			g.proc.NIC().BadReq.Inc()
			tok.Reply(hdlGet, nil, [MaxArgs]uint64{})
			return
		}
		buf := make([]byte, n)
		if err := g.proc.Mem().RemoteRead(seg.Offset+off, buf); err != nil {
			g.proc.NIC().BadReq.Inc()
			buf = nil
		}
		tok.Reply(hdlGet, buf, [MaxArgs]uint64{})
	}
}

// PutNB starts a nonblocking contiguous put of n bytes from src+srcOff
// into dst's segment at dstOff.
func (g *GASNet) PutNB(dst int, comm *runtime.Comm, dstOff int, src memsim.Region, srcOff, n int) (*Handle, error) {
	if !src.Contains(srcOff, n) {
		return nil, fmt.Errorf("gasnet: put source [%d,%d) outside region of %d bytes", srcOff, srcOff+n, src.Size)
	}
	buf := make([]byte, n)
	if err := g.proc.Mem().RemoteRead(src.Offset+srcOff, buf); err != nil {
		return nil, err
	}
	id, w := g.newWait()
	g.AMsLong.Inc()
	if err := g.request(kLong, dst, comm, hdlPut, buf, dstOff, [MaxArgs]uint64{}, id); err != nil {
		g.takeWait(id)
		return nil, err
	}
	return &Handle{g: g, w: w}, nil
}

// Put is the blocking contiguous put: it returns after the data is in the
// remote segment.
func (g *GASNet) Put(dst int, comm *runtime.Comm, dstOff int, src memsim.Region, srcOff, n int) error {
	h, err := g.PutNB(dst, comm, dstOff, src, srcOff, n)
	if err != nil {
		return err
	}
	return h.Wait()
}

// GetNB starts a nonblocking contiguous get of n bytes from src's segment
// at srcOff into dst+dstOff.
func (g *GASNet) GetNB(dst memsim.Region, dstOff int, src int, comm *runtime.Comm, srcOff, n int) (*Handle, error) {
	if !dst.Contains(dstOff, n) {
		return nil, fmt.Errorf("gasnet: get destination [%d,%d) outside region of %d bytes", dstOff, dstOff+n, dst.Size)
	}
	id, w := g.newWait()
	g.AMsShort.Inc()
	if err := g.request(kShort, src, comm, hdlGet, nil, 0, [MaxArgs]uint64{uint64(srcOff), uint64(n)}, id); err != nil {
		g.takeWait(id)
		return nil, err
	}
	return &Handle{g: g, w: w, dst: dst, dstOff: dstOff, isGet: true}, nil
}

// Get is the blocking contiguous get.
func (g *GASNet) Get(dst memsim.Region, dstOff int, src int, comm *runtime.Comm, srcOff, n int) error {
	h, err := g.GetNB(dst, dstOff, src, comm, srcOff, n)
	if err != nil {
		return err
	}
	return h.Wait()
}
