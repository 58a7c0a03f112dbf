package tsp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"distclk/internal/geom"
)

// Bounds on the numbers a TSPLIB file may carry. Every distance stays
// below 2^31, like TSPLIB's and Concorde's int distances, so no tour
// length can overflow int64. maxCoord keeps the widest metric (MAN_2D,
// at most 4*maxCoord) inside that bound; it also rejects NaN and Inf.
const (
	maxWeight = math.MaxInt32
	maxCoord  = 5e8
)

// CheckCoord is the one coordinate rule for every instance source, TSPLIB
// files and inline coordinates alike: |x| and |y| at most maxCoord.
func CheckCoord(x, y float64) error {
	if !(math.Abs(x) <= maxCoord && math.Abs(y) <= maxCoord) {
		return fmt.Errorf("coordinate (%g, %g) out of range [-%g, %g]", x, y, maxCoord, maxCoord)
	}
	return nil
}

// ReadTSPLIB parses a TSPLIB-format .tsp file. Supported EDGE_WEIGHT_TYPEs:
// EUC_2D, CEIL_2D, ATT, GEO, MAN_2D, MAX_2D, and EXPLICIT with
// EDGE_WEIGHT_FORMAT FULL_MATRIX, UPPER_ROW, LOWER_ROW, UPPER_DIAG_ROW, or
// LOWER_DIAG_ROW. The input is untrusted: nothing is allocated from
// DIMENSION before the data it announces has arrived, and every accepted
// instance has symmetric, non-negative distances.
func ReadTSPLIB(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)

	var (
		name, comment    string
		dimension        = -1
		weightType       string
		weightFormat     string
		pts              []geom.Point
		matrixVals       []int64
		inCoords, inEdge bool
	)

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case upper == "EOF":
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "NAME"):
			name = keywordValue(line)
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "COMMENT"):
			comment = keywordValue(line)
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "TYPE"):
			t := strings.ToUpper(keywordValue(line))
			if t != "TSP" && t != "STSP" {
				return nil, fmt.Errorf("tsp: unsupported TYPE %q (only symmetric TSP)", t)
			}
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "DIMENSION"):
			d, err := strconv.Atoi(keywordValue(line))
			if err != nil {
				return nil, fmt.Errorf("tsp: bad DIMENSION: %v", err)
			}
			dimension = d
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "EDGE_WEIGHT_TYPE"):
			weightType = strings.ToUpper(keywordValue(line))
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "EDGE_WEIGHT_FORMAT"):
			weightFormat = strings.ToUpper(keywordValue(line))
			inCoords, inEdge = false, false
		case upper == "NODE_COORD_SECTION" || upper == "DISPLAY_DATA_SECTION":
			inCoords, inEdge = upper == "NODE_COORD_SECTION", false
		case upper == "EDGE_WEIGHT_SECTION":
			inCoords, inEdge = false, true
		case strings.HasSuffix(upper, "_SECTION") || strings.HasSuffix(upper, "_SECTION:"):
			// Unknown section (FIXED_EDGES etc.): skip its lines.
			inCoords, inEdge = false, false
		case inCoords:
			fields := strings.Fields(line)
			if len(fields) < 3 {
				return nil, fmt.Errorf("tsp: bad coordinate line %q", line)
			}
			x, err1 := strconv.ParseFloat(fields[1], 64)
			y, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("tsp: bad coordinate line %q", line)
			}
			if err := CheckCoord(x, y); err != nil {
				return nil, fmt.Errorf("tsp: %w in %q", err, line)
			}
			pts = append(pts, geom.Point{X: x, Y: y})
		case inEdge:
			for _, f := range strings.Fields(line) {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("tsp: bad edge weight %q", f)
				}
				if v < 0 || v > maxWeight {
					return nil, fmt.Errorf("tsp: edge weight %d out of range [0, %d]", v, maxWeight)
				}
				matrixVals = append(matrixVals, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if dimension <= 0 {
		return nil, fmt.Errorf("tsp: missing DIMENSION")
	}

	if weightType == "EXPLICIT" {
		m, err := expandMatrix(dimension, weightFormat, matrixVals)
		if err != nil {
			return nil, err
		}
		inst, err := NewExplicit(name, dimension, m)
		if err != nil {
			return nil, err
		}
		inst.Comment = comment
		return inst, nil
	}

	metric, err := geom.ParseMetric(weightType)
	if err != nil {
		return nil, fmt.Errorf("tsp: %w", err)
	}
	if len(pts) != dimension {
		return nil, fmt.Errorf("tsp: got %d coordinates, DIMENSION %d", len(pts), dimension)
	}
	inst := New(name, metric, pts)
	inst.Comment = comment
	return inst, nil
}

func keywordValue(line string) string {
	if i := strings.IndexByte(line, ':'); i >= 0 {
		return strings.TrimSpace(line[i+1:])
	}
	fields := strings.Fields(line)
	if len(fields) > 1 {
		return fields[1]
	}
	return ""
}

// weightCount returns how many EDGE_WEIGHT_SECTION values format needs for
// n cities. It fails when the n-by-n matrix would overflow int.
func weightCount(n int, format string) (int, error) {
	if n > math.MaxInt/n {
		return 0, fmt.Errorf("tsp: DIMENSION %d too large for an explicit matrix", n)
	}
	tri := n * (n - 1) / 2
	switch format {
	case "FULL_MATRIX":
		return n * n, nil
	case "UPPER_ROW", "LOWER_ROW":
		return tri, nil
	case "UPPER_DIAG_ROW", "LOWER_DIAG_ROW":
		return tri + n, nil
	}
	return 0, fmt.Errorf("tsp: unsupported EDGE_WEIGHT_FORMAT %q", format)
}

// expandMatrix builds the symmetric n-by-n matrix from the section values.
// It checks the value count before allocating, so a short section that
// declares a huge DIMENSION costs nothing.
func expandMatrix(n int, format string, vals []int64) ([]int64, error) {
	need, err := weightCount(n, format)
	if err != nil {
		return nil, err
	}
	if len(vals) < need {
		return nil, fmt.Errorf("tsp: %s with DIMENSION %d needs %d edge weights, got %d", format, n, need, len(vals))
	}
	m := make([]int64, n*n)
	if format == "FULL_MATRIX" {
		copy(m, vals[:need])
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if m[i*n+j] != m[j*n+i] {
					return nil, fmt.Errorf("tsp: FULL_MATRIX is not symmetric at (%d,%d)", i+1, j+1)
				}
			}
		}
		return m, nil
	}
	k := 0
	for i := 0; i < n; i++ {
		// Row i of the triangle covers columns [lo, hi).
		lo, hi := 0, n
		switch format {
		case "UPPER_ROW":
			lo = i + 1
		case "LOWER_ROW":
			hi = i
		case "UPPER_DIAG_ROW":
			lo = i
		case "LOWER_DIAG_ROW":
			hi = i + 1
		}
		for j := lo; j < hi; j++ {
			m[i*n+j], m[j*n+i] = vals[k], vals[k]
			k++
		}
	}
	return m, nil
}

// LoadTSPLIB reads a .tsp file from disk.
func LoadTSPLIB(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTSPLIB(f)
}

// WriteTSPLIB writes a geometric instance in TSPLIB format.
func WriteTSPLIB(w io.Writer, in *Instance) error {
	if in.Explicit() {
		return fmt.Errorf("tsp: writing EXPLICIT instances is not supported")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "NAME : %s\n", in.Name)
	if in.Comment != "" {
		fmt.Fprintf(bw, "COMMENT : %s\n", in.Comment)
	}
	fmt.Fprintf(bw, "TYPE : TSP\n")
	fmt.Fprintf(bw, "DIMENSION : %d\n", in.N())
	fmt.Fprintf(bw, "EDGE_WEIGHT_TYPE : %s\n", in.Metric)
	fmt.Fprintf(bw, "NODE_COORD_SECTION\n")
	for i, p := range in.Pts {
		fmt.Fprintf(bw, "%d %g %g\n", i+1, p.X, p.Y)
	}
	fmt.Fprintf(bw, "EOF\n")
	return bw.Flush()
}

// ReadTourFile parses a TSPLIB .tour file (TOUR_SECTION with 1-based city
// numbers terminated by -1 or EOF).
func ReadTourFile(r io.Reader, n int) (Tour, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var tour Tour
	inTour := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		if upper == "TOUR_SECTION" {
			inTour = true
			continue
		}
		if !inTour {
			continue
		}
		for _, f := range strings.Fields(line) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("tsp: bad tour entry %q", f)
			}
			if v == -1 {
				inTour = false
				break
			}
			tour = append(tour, int32(v-1))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tour.Validate(n); err != nil {
		return nil, err
	}
	return tour, nil
}

// WriteTourFile writes a tour in TSPLIB .tour format with 1-based cities.
func WriteTourFile(w io.Writer, name string, t Tour) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "NAME : %s\nTYPE : TOUR\nDIMENSION : %d\nTOUR_SECTION\n", name, len(t))
	for _, c := range t {
		fmt.Fprintf(bw, "%d\n", c+1)
	}
	fmt.Fprintf(bw, "-1\nEOF\n")
	return bw.Flush()
}
