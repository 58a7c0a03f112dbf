package tsp

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadTSPLIB: ReadTSPLIB parses untrusted uploads (the solve service
// reads a TSPLIB body before its size check). It must not panic, and
// every instance it accepts must have cities and symmetric, non-negative
// distances. The seed corpus is in testdata/fuzz/FuzzReadTSPLIB; run the
// fuzzer with
//
//	go test ./internal/tsp -run '^$' -fuzz FuzzReadTSPLIB -fuzztime 30s
func FuzzReadTSPLIB(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadTSPLIB(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := in.N()
		if n <= 0 {
			t.Fatalf("accepted an instance with N() = %d", n)
		}
		// Every pair of a 64-city prefix keeps one exec cheap.
		m := min(n, 64)
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				d := in.Dist(i, j)
				if d < 0 {
					t.Fatalf("Dist(%d,%d) = %d < 0", i, j, d)
				}
				if e := in.Dist(j, i); e != d {
					t.Fatalf("Dist(%d,%d) = %d but Dist(%d,%d) = %d", i, j, d, j, i, e)
				}
			}
		}
	})
}

// TestReadTSPLIBOversizedDimension: a short EXPLICIT upload that declares
// DIMENSION 100000 announces an 80 GB matrix. The parser must reject it
// from the section's value count without allocating that matrix.
func TestReadTSPLIBOversizedDimension(t *testing.T) {
	const src = "NAME: big\nTYPE: TSP\nDIMENSION: 100000\nEDGE_WEIGHT_TYPE: EXPLICIT\n" +
		"EDGE_WEIGHT_FORMAT: UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 2 3\nEOF\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTSPLIB(strings.NewReader(src))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a 3-value section for DIMENSION 100000")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting a %d-byte upload allocated %d bytes", len(src), got)
	}
}
