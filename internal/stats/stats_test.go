package stats

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d", g.Value())
	}
}
