package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestExactGolden is the modelled-time gate: Fig. 1 / E6, E7 and E9 repeat
// byte for byte at any GOMAXPROCS, so their CSV must equal the committed
// golden file exactly. A change that moves modelled cost on purpose
// regenerates it with
//
//	go run ./cmd/rmabench -exp fig1,e7,e9 -csv > internal/bench/testdata/exact.csv
//
// and the diff shows which cells moved.
func TestExactGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exact.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, res := range []Result{RunFig1(), RunE7(), RunE9()} {
		WriteCSV(&got, res)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("testdata/exact.csv line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
