//go:build race && linux

package lockrank

import (
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

const checked = true

// A goroutine that holds a ranked lock is wired to its thread
// (runtime.LockOSThread), so while it holds any the thread id names it:
// held maps a thread id to the ranked locks of the goroutine wired to it,
// and is empty for a thread no such goroutine is wired to. Wiring and the
// lookup are cheap next to reading a goroutine id off runtime.Stack.
var held sync.Map // thread id → *stack

// mine wires the calling goroutine to its thread and returns its stack,
// for the caller to unwire. The race detector is told that the goroutines
// a thread's stack passes between are ordered, as the thread orders them.
func mine() *stack {
	runtime.LockOSThread()
	tid := syscall.Gettid()
	v, ok := held.Load(tid)
	if !ok {
		v, _ = held.LoadOrStore(tid, new(stack))
	}
	s := v.(*stack)
	runtime.RaceAcquire(unsafe.Pointer(s))
	return s
}

// unwire ends a use of s that mine began.
func unwire(s *stack) {
	runtime.RaceRelease(unsafe.Pointer(s))
	runtime.UnlockOSThread()
}
