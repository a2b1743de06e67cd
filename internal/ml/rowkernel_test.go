package ml

import (
	"context"
	"math"
	"testing"

	"mimicnet/internal/stats"
)

// rowKernelValue draws one input for the exactness tests: with
// probability 1-density an exact zero of either sign, otherwise an
// ordinary value, a subnormal or a large magnitude. Weights stay in
// [-1, 1] and there are at most 256 terms, so no sum overflows.
func rowKernelValue(s *stats.Stream, density float64) float64 {
	sign := 1.0
	if s.Float64() < 0.5 {
		sign = -1
	}
	if s.Float64() >= density {
		return math.Copysign(0, sign)
	}
	switch u := s.Float64(); {
	case u < 0.15:
		return sign * math.SmallestNonzeroFloat64 * float64(1+s.Intn(1<<20))
	case u < 0.3:
		return sign * 1e300 * s.Float64()
	default:
		return 2*s.Float64() - 1
	}
}

// rowKernelGuard is how many slots past each lane's w outputs
// checkRowKernel fills with a sentinel: one more than the widest store
// a masked group could spill.
const rowKernelGuard = 4

// checkRowKernel runs the row kernel's two walks over n lanes through
// pool in four forms — mulLane (the listed walk) from +0; accStrided at
// stride 1 from +0, the cell steps' W·hPrev; accStrided at stride 1 from
// per-element starts that are never -0, the weight gradient's chain onto
// a gradient summed from +0; and accStrided from per-element starts that
// include -0 over the input read with a drawn stride of 1-3, NaN between
// its elements — under every kernel setting the CPU can run
// (kernelConfigs), and requires each element to equal the per-(lane,
// row) dot, dot, dotAcc (every term taken) and dotAccSkip bit for bit.
// The product covers the first w rows of a matrix with up to four more.
// Each lane's output is followed by rowKernelGuard NaN sentinels that
// must survive, and a chunk runs its lanes in descending order, so a
// store past a lane's rows is not hidden by the next lane's write.
func checkRowKernel(t testing.TB, w, K, n int, density float64, pool *Pool, s *stats.Stream) {
	t.Helper()
	rows := w + s.Intn(5)
	m := newMatrix(rows, K)
	for i := range m.Data {
		switch u := s.Float64(); {
		case u < 0.1:
			m.Data[i] = math.Copysign(0, u-0.05)
		case u < 0.2:
			m.Data[i] = math.SmallestNonzeroFloat64 * float64(1+s.Intn(1000))
		default:
			m.Data[i] = 2*s.Float64() - 1
		}
	}
	xs := make([]float64, n*K)
	for i := range xs {
		xs[i] = rowKernelValue(s, density)
	}
	ws := w + rowKernelGuard
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	starts := make([]float64, n*ws)
	posStarts := make([]float64, n*ws) // starts with -0 made +0
	for i := range starts {
		starts[i] = sentinel
		if i%ws < w {
			starts[i] = rowKernelValue(s, 0.5)
		}
		posStarts[i] = starts[i]
		if starts[i] == 0 {
			posStarts[i] = 0
		}
	}
	xStride := 1 + s.Intn(3)
	strided := make([]float64, n*K*xStride)
	for i := range strided {
		strided[i] = math.NaN()
		if i%xStride == 0 {
			strided[i] = xs[i/xStride]
		}
	}
	idx := make([]int, n*K)
	p := packRows(m)
	for _, kn := range kernelConfigs() {
		setKernels(t, kn)
		mul := append([]float64(nil), starts...)
		dense := append([]float64(nil), starts...)
		acc := append([]float64(nil), posStarts...)
		skip := append([]float64(nil), starts...)
		pool.Range(n, w*K, RangeFunc(func(lo, hi int) {
			for a := hi - 1; a >= lo; a-- {
				x := xs[a*K : (a+1)*K]
				p.mulLane(x, mul[a*ws:a*ws+w], idx[a*K:(a+1)*K])
				zeroRange(dense[a*ws : a*ws+w])
				p.accStrided(x, 1, K, dense[a*ws:a*ws+w])
				p.accStrided(x, 1, K, acc[a*ws:a*ws+w])
				p.accStrided(strided[a*K*xStride:], xStride, K, skip[a*ws:a*ws+w])
			}
		}))
		for a := 0; a < n; a++ {
			x := xs[a*K : (a+1)*K]
			for i := 0; i < w; i++ {
				row := m.Data[i*K : (i+1)*K]
				if got, want := mul[a*ws+i], dot(row, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %dx%d n=%d density=%.2f: mulLane lane %d row %d = %v (%#x), dot = %v (%#x)",
						kn, rows, K, n, density, a, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got, want := dense[a*ws+i], dot(row, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %dx%d n=%d density=%.2f: accStrided from +0 lane %d row %d = %v (%#x), dot = %v (%#x)",
						kn, rows, K, n, density, a, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got, want := acc[a*ws+i], dotAcc(posStarts[a*ws+i], row, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %dx%d n=%d density=%.2f: accStrided from a start not -0, lane %d row %d = %v (%#x), dotAcc = %v (%#x)",
						kn, rows, K, n, density, a, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got, want := skip[a*ws+i], dotAccSkip(starts[a*ws+i], row, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %dx%d n=%d density=%.2f stride %d: accStrided lane %d row %d = %v (%#x), dotAccSkip = %v (%#x)",
						kn, rows, K, n, density, xStride, a, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			for i := w; i < ws; i++ {
				for _, out := range []struct {
					form string
					v    []float64
				}{{"mulLane", mul}, {"accStrided from +0", dense}, {"accStrided from a start not -0", acc}, {"accStrided", skip}} {
					if got := math.Float64bits(out.v[a*ws+i]); got != math.Float64bits(sentinel) {
						t.Fatalf("%s %dx%d n=%d: %s lane %d wrote %#x %d slots past its last row",
							kn, rows, K, n, out.form, a, got, i-w+1)
					}
				}
			}
		}
	}
}

// dotAccSkip is dotAcc over the terms whose b[k] is not an exact zero:
// accStrided's chain (MulVecT's and AddOuterGrad's skip set).
func dotAccSkip(acc float64, a, b []float64) float64 {
	for k, v := range b {
		if v != 0 {
			acc += a[k] * v
		}
	}
	return acc
}

// TestRowKernelMatchesDot sweeps every product width from 1 to 40 rows
// at K ∈ {1, 23, 24} — each 16-row pass count, tail length and masked
// group — then shapes with a single column, more columns than one
// gather chunk and inference's 96 rows, at every lane count from 1 to
// 40, with input densities from all-zero to dense, at floor 0 so the
// lane split fans out.
func TestRowKernelMatchesDot(t *testing.T) {
	s := stats.NewStream(17)
	pool := newPoolFloor(3, 0)
	defer pool.Close()
	for w := 1; w <= 40; w++ {
		for _, K := range []int{1, 23, 24} {
			for _, n := range []int{1, 5} {
				for _, density := range []float64{0, 0.5, 1} {
					checkRowKernel(t, w, K, n, density, pool, s)
				}
			}
		}
	}
	shapes := [][2]int{{1, 1}, {3, 1}, {5, 7}, {7, 24}, {13, 23}, {24, 1}, {33, 9}, {72, 24}, {96, 23}, {97, 24}, {6, 150}}
	for _, sh := range shapes {
		for n := 1; n <= 40; n++ {
			for _, density := range []float64{0, 0.1, 0.5, 1} {
				checkRowKernel(t, sh[0], sh[1], n, density, pool, s)
			}
		}
	}
}

// FuzzRowKernel: a product of 1-128 rows over 1-256 columns for 1-40
// lanes.
func FuzzRowKernel(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(96), uint8(23), uint8(13), uint8(80), int64(2))
	f.Add(uint8(97), uint8(24), uint8(40), uint8(255), int64(3))
	f.Add(uint8(5), uint8(1), uint8(31), uint8(128), int64(-4))
	f.Add(uint8(22), uint8(15), uint8(16), uint8(200), int64(5))  // 23 rows × 16 columns
	f.Add(uint8(23), uint8(191), uint8(16), uint8(255), int64(6)) // 24 rows × 192 columns
	f.Fuzz(func(t *testing.T, rows8, k8, lanes8, density8 uint8, seed int64) {
		w := 1 + int(rows8)%128
		K := 1 + int(k8)
		n := 1 + int(lanes8)%40
		pool := newPoolFloor(3, 0)
		defer pool.Close()
		checkRowKernel(t, w, K, n, float64(density8)/255, pool, stats.NewStream(seed))
	})
}

// TestDenseRecurrentProductMatchesMulLane: the cell steps' recurrent
// product W·hPrev (accStrided from +0) equals the listed walk mulLane
// and dot bit for bit at the LSTM bank's shape (96×24), on h vectors
// holding +0, -0, subnormals and ordinary values, under every kernel
// setting the CPU can run.
func TestDenseRecurrentProductMatchesMulLane(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	s := stats.NewStream(11)
	const H, rows = 24, 4 * 24
	hs := [][]float64{make([]float64, H), make([]float64, H), make([]float64, H), make([]float64, H)}
	for i := 0; i < H; i++ {
		hs[1][i] = neg0
		hs[2][i] = []float64{0, neg0, sub, -sub * 3, 1e-310}[i%5]
		hs[3][i] = []float64{2*s.Float64() - 1, 0, neg0, -sub}[i%4]
	}
	m := newMatrix(rows, H)
	for i := range m.Data {
		m.Data[i] = 2*s.Float64() - 1
		if i%7 == 0 {
			m.Data[i] = math.Copysign(0, m.Data[i])
		}
	}
	p := packRows(m)
	for _, kn := range kernelConfigs() {
		setKernels(t, kn)
		for hi, h := range hs {
			want := make([]float64, rows)
			got := make([]float64, rows)
			p.mulLane(h, want, make([]int, H))
			p.accStrided(h, 1, H, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s h #%d: row %d accStrided = %#x, mulLane = %#x",
						kn, hi, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				if d := dot(m.Data[i*H:(i+1)*H], h); math.Float64bits(got[i]) != math.Float64bits(d) {
					t.Fatalf("%s h #%d: row %d accStrided = %#x, dot = %#x",
						kn, hi, i, math.Float64bits(got[i]), math.Float64bits(d))
				}
			}
		}
	}
}

// TestNonFiniteWeightBreaksZeroSkip is the regression for the
// precondition the row kernel rests on. With W[0][5] = +Inf and
// x[5] = 0 both zero-skipping walks (WalkLanes listed and strided, 4
// lanes × 20 columns, and mulLane) return 0.1 while dot returns NaN, so
// an artifact with a non-finite weight must never reach
// inference: CheckFinite names it, and core refuses it on load and after
// training.
func TestNonFiniteWeightBreaksZeroSkip(t *testing.T) {
	const lanes, cols = 4, 20
	m := newMatrix(4, cols)
	m.Data[0] = 0.1
	m.Data[5] = math.Inf(1)
	xs := make([]float64, lanes*cols)
	for a := 0; a < lanes; a++ {
		xs[a*cols] = 1 // one-hot: x[5] is an exact zero
	}
	if d := dot(m.Data[:cols], xs[:cols]); !math.IsNaN(d) {
		t.Fatalf("dot = %v, want NaN (Inf·0)", d)
	}
	p := packRows(m)
	row := make([]float64, 4)
	p.mulLane(xs[:cols], row, make([]int, cols))
	for _, dense := range []bool{false, true} {
		out := make([]float64, lanes*4)
		m.WalkLanes(xs, lanes, out, dense, NewPool(1))
		if out[0] != 0.1 || row[0] != 0.1 {
			t.Fatalf("zero-skipping products (dense %v) = %v, %v; want 0.1 (the Inf·0 term skipped)", dense, out[0], row[0])
		}
	}

	model, err := NewModel(DefaultModelConfig(cols, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := model.CheckFinite(); err != nil {
		t.Fatalf("fresh model: %v", err)
	}
	model.Trunk[0].(*lstm).Wx.Data[5] = math.Inf(1)
	if err := model.CheckFinite(); err == nil {
		t.Fatal("CheckFinite accepted an Inf weight")
	}
	model.Trunk[0].(*lstm).Wx.Data[5] = 0
	model.ECNHead.B.Data[0] = math.NaN()
	if err := model.CheckFinite(); err == nil {
		t.Fatal("CheckFinite accepted a NaN bias")
	}
}

// defaultShapeLanes returns a model of the default artifact shape (23
// features, hidden 24, one layer) with the given trunk, the lanes
// 0…n-1, and one mostly-zero input per lane, like the one-hot feature
// blocks.
func defaultShapeLanes(tb testing.TB, cell string, n int) (*Model, []int, [][]float64) {
	tb.Helper()
	cfg := DefaultModelConfig(23, 12)
	cfg.CellType = cell
	model, err := NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := stats.NewStream(int64(n))
	lanes := make([]int, n)
	xs := make([][]float64, n)
	for i := range lanes {
		lanes[i] = i
		xs[i] = sparseVec(cfg.Features, rng)
	}
	return model, lanes, xs
}

// TestStepLanesDoesNotAllocate: a warmed-up fused step allocates
// nothing, inline (production floor) or fanned out (floor 0), for every
// trunk class at the default artifact shape.
func TestStepLanesDoesNotAllocate(t *testing.T) {
	for _, cell := range []string{"lstm", "mlp"} {
		for _, floor := range []int{dispatchFloor, 0} {
			pool := newPoolFloor(2, floor)
			for _, n := range []int{1, 7, 16, 31} {
				model, lanes, xs := defaultShapeLanes(t, cell, n)
				bat := NewBatchedStatefulModel(model, n, pool)
				preds := make([]Prediction, n)
				step := func() { bat.StepLanes(lanes, xs, nil, preds) }
				step() // size the scratch buffers
				if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
					t.Errorf("%s floor=%d n=%d: %v allocs per StepLanes, want 0", cell, floor, n, allocs)
				}
			}
			pool.Close()
		}
	}
}

// TestBankAfterFineTune pins the packing lifetime: a bank snapshots its
// trunk weights when it is built, so one built after training (which
// continues from the model's current weights) predicts with the new
// weights — bit for bit what the per-packet path on the same model
// predicts.
func TestBankAfterFineTune(t *testing.T) {
	for _, cell := range []string{"lstm", "mlp"} {
		model := parityModel(t, cell, 1)
		before := NewBatchedStatefulModel(model, 1, nil)
		if _, err := model.TrainContext(context.Background(), samplesOf(synthSamples(40, model.Cfg.Features, model.Cfg.Window, 3)), TrainOpts{}); err != nil {
			t.Fatal(err)
		}
		after := NewBatchedStatefulModel(model, 1, nil)
		ref := NewStatefulModel(model)
		rng := stats.NewStream(8)
		stale := false
		for step := 0; step < 10; step++ {
			x := randVec(model.Cfg.Features, rng)
			want := ref.Predict(x)
			if got := after.PredictLane(0, x); got != want {
				t.Fatalf("%s step %d: bank built after retraining %+v != per-packet %+v", cell, step, got, want)
			}
			if before.PredictLane(0, x) != want {
				stale = true
			}
		}
		if !stale {
			t.Fatalf("%s: retraining did not change predictions; the test proves nothing", cell)
		}
	}
}
