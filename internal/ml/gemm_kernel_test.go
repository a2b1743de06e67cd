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
	if err := setGemmKernel(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := setGemmKernel(prev); err != nil {
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
	ks := gemmKernels()
	t.Logf("kernels=%v active=%s wideGates=%v (cpu: avx2=%v fma=%v)",
		ks, GemmKernelName(), gemmKernel().wideGates, cpuHasAVX2, cpuHasFMA)
	want := []string{"scalar"}
	if cpuHasAVX2 {
		want = append(want, "avx2")
	}
	if strings.Join(ks, " ") != strings.Join(want, " ") {
		t.Fatalf("gemmKernels() = %v, want %v", ks, want)
	}
}

func TestSetGemmKernelErrors(t *testing.T) {
	active := GemmKernelName()
	// "sse2" is not a family: an MIMICNET_GEMM=sse2 environment fails fast
	// like any other unknown name instead of running another kernel.
	for _, name := range []string{"neon", "sse2"} {
		err := setGemmKernel(name)
		if err == nil {
			t.Fatalf("setGemmKernel(%q): expected error for unknown kernel name", name)
		}
		for _, want := range []string{"unknown GEMM kernel", "supported values: scalar, avx2;"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("unknown-kernel error %q should mention %q", err, want)
			}
		}
	}
	// Known names that this CPU/build cannot run get a distinct message.
	for _, name := range gemmKernelNames {
		if _, ok := gemmImplByName[name]; ok {
			continue
		}
		err := setGemmKernel(name)
		if err == nil || !strings.Contains(err.Error(), "not available") {
			t.Errorf("setGemmKernel(%q) = %v, want not-available error", name, err)
		}
	}
	if GemmKernelName() != active {
		t.Fatalf("failed setGemmKernel changed the active kernel to %s", GemmKernelName())
	}
}

// TestGemmKernelGauge: the info gauge has one series per family, scalar
// and avx2, 1 on the live one.
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
	if n := strings.Count(text, "mimicnet_ml_gemm_kernel{"); n != 2 {
		t.Errorf("metrics output has %d gemm kernel series, want 2", n)
	}
}

// FuzzGateKernels bit-compares the 4-wide sigmoid/tanh kernels against
// the scalar sigmoid/math.Tanh on arbitrary float64 inputs, including
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
			want := sigmoid(x)
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
			if math.Float64bits(inPlace[i]) != math.Float64bits(sigmoid(x)) {
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
	kernels := gemmKernels()
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
		if _, err := m.TrainContext(context.Background(), samplesOf(samples), TrainOpts{}); err != nil {
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
