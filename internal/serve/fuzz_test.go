package serve

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"
)

// FuzzSolveRequest: a solve request body is untrusted input. The admission
// path decodes it (unknown fields rejected), builds the instance under the
// service's size limit and normalizes the params. None of that may panic,
// and every instance it accepts must have minCities <= n <= MaxN and
// non-negative distances below 2^31, so no tour length can overflow. The
// seed corpus is in testdata/fuzz/FuzzSolveRequest; run the fuzzer with
//
//	go test ./internal/serve -run '^$' -fuzz FuzzSolveRequest -fuzztime 30s -fuzzminimizetime 2s
func FuzzSolveRequest(f *testing.F) {
	opt := Options{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(data)))
		if err != nil {
			return
		}
		if _, err := req.Params.normalize(opt); err != nil {
			return
		}
		in, err := req.instance(opt.MaxN)
		if err != nil {
			return
		}
		n := in.N()
		if n < minCities || n > opt.MaxN {
			t.Fatalf("accepted an instance with %d cities, limits [%d, %d]", n, minCities, opt.MaxN)
		}
		// Every pair of a 64-city prefix keeps one exec cheap.
		m := min(n, 64)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if d := in.Dist(i, j); d < 0 || d > math.MaxInt32 {
					t.Fatalf("Dist(%d,%d) = %d, want in [0, 2^31)", i, j, d)
				}
			}
		}
	})
}
