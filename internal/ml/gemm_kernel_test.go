package ml

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mimicnet/internal/obs"
	"mimicnet/internal/stats"
)

// setKernel forces one GEMM kernel family for the duration of the test
// and restores the previous selection afterwards.
func setKernel(t testing.TB, name string) {
	t.Helper()
	prev := GemmKernelName()
	if err := SetGemmKernel(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := SetGemmKernel(prev); err != nil {
			t.Fatal(err)
		}
	})
}

// wideGatesAvailable reports whether any family on this CPU/build runs
// the 4-wide gate kernels.
func wideGatesAvailable() bool {
	impl, ok := gemmImplByName["avx2"]
	return ok && impl.wideGates
}

func TestGemmKernelsAvailable(t *testing.T) {
	ks := GemmKernels()
	t.Logf("kernels=%v active=%s wideGates=%v (cpu: avx2=%v fma=%v)",
		ks, GemmKernelName(), GemmWideGates(), cpuHasAVX2, cpuHasFMA)
	if len(ks) == 0 || ks[0] != "scalar" {
		t.Fatalf("scalar family must always be available, got %v", ks)
	}
	if haveGemm8 {
		found := false
		for _, k := range ks {
			if k == "sse2" {
				found = true
			}
		}
		if !found {
			t.Fatalf("sse2 family missing despite haveGemm8: %v", ks)
		}
	}
}

func TestSetGemmKernelErrors(t *testing.T) {
	active := GemmKernelName()
	err := SetGemmKernel("neon")
	if err == nil {
		t.Fatal("expected error for unknown kernel name")
	}
	for _, want := range []string{"unknown GEMM kernel", "scalar", "sse2", "avx2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-kernel error %q should mention %q", err, want)
		}
	}
	// Known names that this CPU/build cannot run get a distinct message.
	for _, name := range gemmKernelNames {
		if _, ok := gemmImplByName[name]; ok {
			continue
		}
		err := SetGemmKernel(name)
		if err == nil || !strings.Contains(err.Error(), "not available") {
			t.Errorf("SetGemmKernel(%q) = %v, want not-available error", name, err)
		}
	}
	if GemmKernelName() != active {
		t.Fatalf("failed SetGemmKernel changed the active kernel to %s", GemmKernelName())
	}
}

func TestGemmKernelGauge(t *testing.T) {
	var sb strings.Builder
	if err := obs.Default().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	live := `mimicnet_ml_gemm_kernel{kernel="` + GemmKernelName() + `"} 1`
	if !strings.Contains(text, live) {
		t.Fatalf("metrics output missing %q", live)
	}
	for _, k := range gemmKernelNames {
		if k == GemmKernelName() {
			continue
		}
		idle := `mimicnet_ml_gemm_kernel{kernel="` + k + `"} 0`
		if !strings.Contains(text, idle) {
			t.Errorf("metrics output missing %q", idle)
		}
	}
}

// FuzzGemmKernels drives MulLanes through every available kernel family
// on one fuzzed shape — rows/k/lanes, partial row ranges, padded output
// strides, ragged lane tails, dense and mostly-zero inputs — and
// requires bitwise equality with the naive ascending-k reference.
func FuzzGemmKernels(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(1))
	f.Add(uint8(1), uint8(7), uint8(16), uint8(3), int64(2))
	f.Add(uint8(8), uint8(1), uint8(33), uint8(1), int64(3))
	f.Add(uint8(13), uint8(24), uint8(17), uint8(5), int64(4))
	f.Add(uint8(32), uint8(9), uint8(15), uint8(2), int64(5))
	f.Add(uint8(96), uint8(24), uint8(64), uint8(0), int64(6))
	f.Add(uint8(52), uint8(13), uint8(16), uint8(7), int64(-9))
	f.Fuzz(func(t *testing.T, rows8, k8, lanes8, pad8 uint8, seed int64) {
		rows := 1 + int(rows8)%96
		k := 1 + int(k8)%64
		n := int(lanes8) % 70
		outStride := rows + int(pad8)%8
		s := stats.NewStream(seed)
		m := randMatrix(rows, k, s)
		var xs []float64
		if seed%3 == 0 {
			xs = sparseVec(n*k, s)
		} else {
			xs = randVec(n*k, s)
		}
		r1 := 1 + s.Intn(rows)
		r0 := s.Intn(r1)
		want := naiveMulLanes(m, r0, r1, xs, n, outStride)
		pools := []*Pool{NewPool(1), NewPool(3)}
		defer pools[0].Close()
		defer pools[1].Close()
		for _, kn := range GemmKernels() {
			setKernel(t, kn)
			for pi, pool := range pools {
				got := make([]float64, n*outStride)
				m.MulLanes(r0, r1, xs, n, got, outStride, pool)
				for a := 0; a < n; a++ {
					for r := r0; r < r1; r++ {
						i := a*outStride + r
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("kernel %s pool %d: (%dx%d n=%d rows [%d,%d)) lane %d row %d: %v != %v",
								kn, pi, rows, k, n, r0, r1, a, r, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// FuzzGemmBackwardKernels covers the trainer products the avx2 family
// routes through the row kernel — MulLanesT, AddGradLanes and MulLanes'
// sparse branch — against their scalar references under every family,
// bitwise (checkLaneProducts): ±0, subnormals, all-zero lanes and rows,
// up to 70 lanes.
func FuzzGemmBackwardKernels(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(2), int64(1))
	f.Add(uint8(28), uint8(13), uint8(16), int64(2))
	f.Add(uint8(52), uint8(8), uint8(7), int64(3))
	f.Add(uint8(1), uint8(1), uint8(1), int64(4))
	f.Add(uint8(96), uint8(23), uint8(66), int64(5))
	f.Add(uint8(72), uint8(24), uint8(70), int64(6))
	f.Fuzz(func(t *testing.T, rows8, k8, lanes8 uint8, seed int64) {
		rows := 1 + int(rows8)%128
		k := 1 + int(k8)%64
		n := 1 + int(lanes8)%70
		density := 1.0
		if seed%2 == 0 {
			density = 0.3 // mostly zero: MulLanes' sparse branch
		}
		pool := newPoolFloor(3, 0)
		defer pool.Close()
		checkLaneProducts(t, rows, k, n, density, pool, stats.NewStream(seed))
	})
}

// FuzzGateKernels bit-compares the 4-wide sigmoid/tanh kernels against
// the scalar Sigmoid/math.Tanh on arbitrary float64 inputs, including
// the specials the fuzzer will find (±0, denormals, ±Inf, NaN, branch
// boundaries). Skipped (not failed) on builds/CPUs without wide gates.
func FuzzGateKernels(f *testing.F) {
	f.Add(0.0, math.Copysign(0, -1), 0.625, -0.625)
	f.Add(44.014, -44.015, 709.8, -709.8)
	f.Add(math.Inf(1), math.Inf(-1), 1e-320, -1e-320)
	f.Add(0.3, -19.0625, 100.0, 5e-324)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		if !wideGatesAvailable() {
			t.Skip("wide gate kernels unavailable")
		}
		src := []float64{a, b, c, d, a} // ragged tail covers the scalar epilogue
		got := make([]float64, len(src))
		sigmoidLanes(got, src, true)
		for i, x := range src {
			want := Sigmoid(x)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("sigmoid(%v) = %x, want %x", x, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
		tanhLanes(got, src, true)
		for i, x := range src {
			want := math.Tanh(x)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("tanh(%v) = %x, want %x", x, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
		// In-place operation must give the same bits.
		inPlace := append([]float64(nil), src...)
		sigmoidLanes(inPlace, inPlace, true)
		for i, x := range src {
			if math.Float64bits(inPlace[i]) != math.Float64bits(Sigmoid(x)) {
				t.Fatalf("in-place sigmoid(%v) diverged", x)
			}
		}
	})
}

// TestGoldenKernelParity is the end-to-end cross-kernel check: training
// the same model under every kernel family must produce byte-identical
// serialized artifacts, and batched inference on the trained model must
// produce bit-identical predictions, regardless of which family ran and
// of how the pool split the work (every entry of poolConfigs).
func TestGoldenKernelParity(t *testing.T) {
	kernels := GemmKernels()
	if len(kernels) < 2 {
		t.Skip("only one kernel family available; nothing to cross-check")
	}
	type result struct {
		blob  []byte
		preds []Prediction
	}
	run := func(kn string, pc poolConfig) result {
		setKernel(t, kn)
		pool := pc.start(t)
		cfg := DefaultModelConfig(3, 5)
		cfg.Hidden = 13 // not a multiple of any lane block: ragged tails
		cfg.Layers = 2
		cfg.BatchSize = 8
		cfg.Epochs = 2
		cfg.Seed = 7
		samples := synthSamples(60, cfg.Features, cfg.Window, 19)
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrainContext(context.Background(), samplesOf(samples), TrainOpts{Pool: pool}); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		bm := NewBatchedStatefulModel(m, 4, pool)
		rng := stats.NewStream(99)
		var preds []Prediction
		for step := 0; step < 6; step++ {
			for lane := 0; lane < 4; lane++ {
				x := make([]float64, cfg.Features)
				for i := range x {
					x[i] = 2*rng.Float64() - 1
				}
				preds = append(preds, bm.PredictLane(lane, x))
			}
		}
		return result{blob: blob, preds: preds}
	}
	base := run(kernels[0], poolConfigs[0])
	for _, kn := range kernels {
		for _, pc := range poolConfigs {
			r := run(kn, pc)
			if string(r.blob) != string(base.blob) {
				t.Errorf("trained artifact under %s %v differs from %s %v (%d vs %d bytes)",
					kn, pc, kernels[0], poolConfigs[0], len(r.blob), len(base.blob))
			}
			for i := range base.preds {
				if r.preds[i] != base.preds[i] {
					t.Errorf("prediction %d under %s %v differs from %s %v: %+v vs %+v",
						i, kn, pc, kernels[0], poolConfigs[0], r.preds[i], base.preds[i])
					break
				}
			}
		}
	}
}
