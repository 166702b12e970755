// Package stats provides the lightweight concurrent counters, gauges and
// power-of-two latency histograms the layers keep for operation counts
// (messages sent, bytes moved, locks taken, cache invalidations) and
// per-request virtual-time latency.
package stats

import "sync/atomic"

// Counter is a monotonically increasing concurrent counter.
// The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a concurrent value that can move in both directions.
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores v as the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
