package ml

import (
	"fmt"
	"math"
	"testing"

	"mimicnet/internal/stats"
)

// laneValue draws one operand for the trainer-product exactness tests:
// with probability 1-density an exact zero of either sign, otherwise a
// subnormal or an ordinary value in [-1, 1]. Magnitudes stay small, so
// no sum overflows and every product is finite (the zero-skip's
// precondition).
func laneValue(s *stats.Stream, density float64) float64 {
	sign := 1.0
	if s.Float64() < 0.5 {
		sign = -1
	}
	if s.Float64() >= density {
		return math.Copysign(0, sign)
	}
	if s.Float64() < 0.15 {
		return sign * math.SmallestNonzeroFloat64 * float64(1+s.Intn(1<<20))
	}
	return 2*s.Float64() - 1
}

// laneOperands draws a rows×K matrix, n lanes of inputs at the given
// density and n lanes of row gradients (stride rows) in which about one
// lane in eight and one row in eight are all zeros.
func laneOperands(rows, K, n int, density float64, s *stats.Stream) (m *Matrix, xs, dys []float64) {
	m = newMatrix(rows, K)
	for i := range m.Data {
		m.Data[i] = laneValue(s, 0.9)
		m.Grad[i] = laneValue(s, 0.5) // AddGradLanes continues from here, -0 included
	}
	xs = make([]float64, n*K)
	dys = make([]float64, n*rows)
	zeroRow := make([]bool, rows)
	for r := range zeroRow {
		zeroRow[r] = s.Float64() < 0.125
	}
	for a := 0; a < n; a++ {
		zeroLane := s.Float64() < 0.125
		for k := 0; k < K; k++ {
			if !zeroLane {
				xs[a*K+k] = laneValue(s, density)
			}
		}
		for r := 0; r < rows; r++ {
			if !zeroLane && !zeroRow[r] {
				dys[a*rows+r] = laneValue(s, 0.75)
			}
		}
	}
	return m, xs, dys
}

// checkLaneProducts runs the cell steps' forward walks per lane
// (WalkLanes, listed and strided), MulLanesT and AddGradLanes on one
// shape through pool under every kernel setting and requires each
// output element to equal a scalar reference bit for bit: the dense
// ascending-k sum for the forward walks (both skip only exact-zero
// inputs), and for the backward products the per-vector loops of
// MulVecT and AddOuterGrad, which skip d = 0. The row range is a random
// sub-range and the forward output stride is padded by up to 7.
func checkLaneProducts(t testing.TB, rows, K, n int, density float64, pool *Pool, s *stats.Stream) {
	t.Helper()
	m, xs, dys := laneOperands(rows, K, n, density, s)
	r1 := 1 + s.Intn(rows)
	r0 := s.Intn(r1)
	outStride := rows + s.Intn(8)
	grad0 := append([]float64(nil), m.Grad...)

	wantMul := naiveWalkLanes(m, r0, r1, xs, n, outStride)
	wantT := make([]float64, n*K)
	for a := 0; a < n; a++ {
		for r := r0; r < r1; r++ {
			d := dys[a*rows+r]
			if d == 0 {
				continue
			}
			for c := 0; c < K; c++ {
				wantT[a*K+c] += m.Data[r*K+c] * d
			}
		}
	}
	wantG := append([]float64(nil), grad0...)
	for r := r0; r < r1; r++ {
		for a := 0; a < n; a++ {
			d := dys[a*rows+r]
			if d == 0 {
				continue
			}
			for c := 0; c < K; c++ {
				wantG[r*K+c] += d * xs[a*K+c]
			}
		}
	}

	same := func(kn kernelConfig, what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s (%dx%d rows [%d,%d) n=%d density=%.2f) elem %d: %v (%#x), want %v (%#x)",
					kn, what, rows, K, r0, r1, n, density, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, kn := range kernelConfigs() {
		setKernels(t, kn)
		for _, dense := range []bool{false, true} {
			gotMul := make([]float64, n*outStride)
			m.WalkLanes(r0, r1, xs, n, gotMul, outStride, dense, pool)
			for a := 0; a < n; a++ {
				same(kn, fmt.Sprintf("WalkLanes dense=%v", dense), gotMul[a*outStride+r0:a*outStride+r1], wantMul[a*outStride+r0:a*outStride+r1])
			}
		}
		gotT := make([]float64, n*K)
		for i := range gotT {
			gotT[i] = math.NaN() // MulLanesT overwrites
		}
		m.MulLanesT(r0, r1, dys, rows, n, gotT, pool)
		same(kn, "MulLanesT", gotT, wantT)
		copy(m.Grad, grad0)
		m.AddGradLanes(r0, r1, dys, rows, n, xs, pool)
		same(kn, "AddGradLanes", m.Grad, wantG)
	}
}

// TestLaneProductsMatchScalar sweeps every lane count from 1 to 70 (past
// the row kernel's 64-entry index block) over column counts from 1 to 49
// — the default shape's 23 and 24 among them — at sparse and dense input
// densities, with lanes and row blocks split over the pool at floor 0.
// Then the edge shapes — no lanes, fewer rows than one 4-row vector, a
// 1×1 matrix, the default LSTM products — and random shapes, dense and
// sparse, through pools of 1 and 4 workers at the production floor.
func TestLaneProductsMatchScalar(t *testing.T) {
	s := stats.NewStream(23)
	pool := newPoolFloor(3, 0)
	defer pool.Close()
	for _, K := range []int{1, 3, 5, 12, 23, 24, 49} {
		for n := 1; n <= 70; n++ {
			rows := 4 + s.Intn(97)
			for _, density := range []float64{0.3, 1} {
				checkLaneProducts(t, rows, K, n, density, pool, s)
			}
		}
	}
	edges := [][3]int{ // rows, K, n
		{1, 1, 0}, {1, 1, 1}, {1, 1, 17}, {3, 7, 0}, {3, 7, 5}, {2, 24, 16}, {1, 50, 3},
		{gemmRowBlock + 1, 5, gemmLaneBlock + 1}, {96, 23, 16}, {96, 24, 33},
	}
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		for _, density := range []float64{0.3, 1} {
			for _, e := range edges {
				checkLaneProducts(t, e[0], e[1], e[2], density, p, s)
			}
			for i := 0; i < 30; i++ {
				checkLaneProducts(t, 1+s.Intn(80), 1+s.Intn(50), s.Intn(70), density, p, s)
			}
		}
		p.Close()
	}
}

// FuzzLaneProducts runs checkLaneProducts on one fuzzed shape at floor 0:
// up to 128 rows, 64 columns and 70 lanes (0 included), sparse or dense
// inputs with ±0, subnormals, all-zero lanes and rows.
func FuzzLaneProducts(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(2), int64(1))
	f.Add(uint8(28), uint8(13), uint8(16), int64(2))
	f.Add(uint8(52), uint8(8), uint8(7), int64(3))
	f.Add(uint8(1), uint8(1), uint8(1), int64(4))
	f.Add(uint8(96), uint8(23), uint8(66), int64(5))
	f.Add(uint8(72), uint8(24), uint8(70), int64(6))
	f.Add(uint8(0), uint8(0), uint8(0), int64(7))
	f.Fuzz(func(t *testing.T, rows8, k8, lanes8 uint8, seed int64) {
		rows := 1 + int(rows8)%128
		k := 1 + int(k8)%64
		n := int(lanes8) % 71
		density := 1.0
		if seed%2 == 0 {
			density = 0.3
		}
		pool := newPoolFloor(3, 0)
		defer pool.Close()
		checkLaneProducts(t, rows, k, n, density, pool, stats.NewStream(seed))
	})
}
