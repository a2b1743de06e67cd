package ml

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"mimicnet/internal/obs"
	"mimicnet/internal/stats"
)

// kernelConfig is one setting of the two kernel flags.
type kernelConfig struct{ rowsAcc, wideGates bool }

func (k kernelConfig) String() string {
	switch {
	case k.wideGates:
		return "rowsAcc+wide"
	case k.rowsAcc:
		return "rowsAcc"
	}
	return "go"
}

// wideGatesProbed is the probe's choice, kept apart from useWideGates,
// which setKernels changes.
var wideGatesProbed = useWideGates

// kernelConfigs lists every setting this CPU and build can run: the Go
// loops; rowsAcc with the Go gates; rowsAcc with the wide gates.
func kernelConfigs() []kernelConfig {
	ks := []kernelConfig{{}}
	if cpuHasAVX2 {
		ks = append(ks, kernelConfig{rowsAcc: true})
	}
	if wideGatesProbed {
		ks = append(ks, kernelConfig{rowsAcc: true, wideGates: true})
	}
	return ks
}

// setKernels sets both kernel flags for the rest of the test and
// restores them afterwards.
func setKernels(t testing.TB, k kernelConfig) {
	t.Helper()
	rows, gates := useRowsAcc, useWideGates
	useRowsAcc, useWideGates = k.rowsAcc, k.wideGates
	t.Cleanup(func() { useRowsAcc, useWideGates = rows, gates })
}

func TestGemmKernelsAvailable(t *testing.T) {
	t.Logf("active=%s wideGates=%v (cpu: avx2=%v fma=%v)", GemmKernelName(), useWideGates, cpuHasAVX2, cpuHasFMA)
	want := "scalar"
	if cpuHasAVX2 {
		want = "avx2"
	}
	if got := GemmKernelName(); got != want {
		t.Fatalf("GemmKernelName() = %s, want %s", got, want)
	}
	// wideGatesMatchScalar turns the wide gates off when they disagree
	// with the scalar functions, which keeps results right but would let
	// a broken kernel pass every test that skips without them. On FMA
	// hardware with no GODEBUG cpu override, the gates must be on; with
	// an override that sends math.Exp down its path without FMA
	// (cpu.fma=off), they must be off.
	override := strings.Contains(os.Getenv("GODEBUG"), "cpu.")
	switch {
	case useWideGates && !cpuHasFMA:
		t.Fatal("wide gates on without FMA")
	case cpuHasFMA && !override && !useWideGates:
		t.Fatal("CPU has AVX2 and FMA but the wide gates failed wideGatesMatchScalar")
	case useWideGates && expVariant(t) != "fma":
		t.Fatal("wide gates on, but math.Exp takes its nofma path")
	}
}

// TestGemmKernelGauge: the info gauge has one series, 1 on the live
// family.
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
	if n := strings.Count(text, "mimicnet_ml_gemm_kernel{"); n != 1 {
		t.Errorf("metrics output has %d gemm kernel series, want 1", n)
	}
}

// offFastPath are inputs that leave exp's normal-scale fast path in the
// sigmoid kernel (|x| past the overflow cutoff, a subnormal exp(-|x|),
// non-finite), so the wide kernel stops at their group and the scalar
// fallback computes it.
var offFastPath = []float64{710, -745, 709.5, -1e300, math.Inf(1), math.Inf(-1), math.NaN()}

// checkGateSlices bit-compares sigmoidLanes and tanhLanes on the wide
// path against the scalar sigmoid/math.Tanh over src, into a separate
// dst (prefilled with NaN, so a group the kernel left unwritten shows)
// and in place.
func checkGateSlices(t *testing.T, src []float64) {
	t.Helper()
	gates := []struct {
		name   string
		lanes  func(dst, src []float64, wide bool)
		scalar func(float64) float64
	}{{"sigmoid", sigmoidLanes, sigmoid}, {"tanh", tanhLanes, math.Tanh}}
	for _, g := range gates {
		apart := make([]float64, len(src))
		for i := range apart {
			apart[i] = math.NaN()
		}
		g.lanes(apart, src, true)
		inPlace := append([]float64(nil), src...)
		g.lanes(inPlace, inPlace, true)
		for i, x := range src {
			want := math.Float64bits(g.scalar(x))
			if got := math.Float64bits(apart[i]); got != want {
				t.Fatalf("%s lane %d of %d: %s(%v) = %x, want %x", g.name, i, len(src), g.name, x, got, want)
			}
			if got := math.Float64bits(inPlace[i]); got != want {
				t.Fatalf("%s lane %d of %d in place: %s(%v) = %x, want %x", g.name, i, len(src), g.name, x, got, want)
			}
		}
	}
}

// checkLSTMPasses compares the LSTM's elementwise passes (addSumLanes,
// cellLanes, prodLanes) on the wide path with their scalar loops over
// operands rotated from vals, each pass both into its own buffer and in
// place. Two NaNs need not carry the same payload: which operand's
// payload survives depends on the operand order the compiler picks.
func checkLSTMPasses(t *testing.T, vals []float64) {
	t.Helper()
	n := len(vals)
	rot := func(k int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = vals[(i+k)%n]
		}
		return v
	}
	a, b, c, d := rot(0), rot(1), rot(2), rot(3)
	passes := []struct {
		name string
		run  func(dst []float64, wide bool)
	}{
		{"addSum", func(dst []float64, wide bool) { addSumLanes(dst, b, c, wide) }},
		{"addSum in place", func(dst []float64, wide bool) { addSumLanes(dst, dst, c, wide) }},
		{"cell", func(dst []float64, wide bool) { cellLanes(dst, b, c, d, wide) }},
		{"cell in place", func(dst []float64, wide bool) { cellLanes(dst, dst, c, dst, wide) }},
		{"prod", func(dst []float64, wide bool) { prodLanes(dst, b, c, wide) }},
		{"prod in place", func(dst []float64, wide bool) { prodLanes(dst, b, dst, wide) }},
	}
	for _, p := range passes {
		got, want := append([]float64(nil), a...), append([]float64(nil), a...)
		p.run(got, true)
		p.run(want, false)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s lane %d of %d: wide %v (%#x), scalar %v (%#x)", p.name, i, n,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// FuzzGateKernels bit-compares the wide sigmoid/tanh slice kernels
// against the scalar sigmoid/math.Tanh on arbitrary float64 inputs,
// including the specials the fuzzer will find (±0, denormals, ±Inf, NaN,
// branch boundaries). The slice is 1–13 lanes cycled from the four
// inputs, so whole groups and a ragged tail both occur, and is checked
// as drawn and with an off-fast-path value in its first, a middle and
// its last group: the sigmoid kernel's early exit and resume run at
// every position. The LSTM's elementwise passes run on the same lanes
// (checkLSTMPasses). Skipped (not failed) on builds/CPUs without wide
// gates.
func FuzzGateKernels(f *testing.F) {
	f.Add(0.0, math.Copysign(0, -1), 0.625, -0.625, uint8(4), uint8(0))
	f.Add(44.014, -44.015, 709.8, -709.8, uint8(12), uint8(1))
	f.Add(math.Inf(1), math.Inf(-1), 1e-320, -1e-320, uint8(8), uint8(2))
	f.Add(0.3, -19.0625, 100.0, 5e-324, uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c, d float64, n8, at8 uint8) {
		if !wideGatesProbed {
			t.Skip("wide gate kernels unavailable")
		}
		vals := [4]float64{a, b, c, d}
		src := make([]float64, 1+int(n8)%13)
		for i := range src {
			src[i] = vals[(i+i/4)%4] // rotate per group so lanes differ
		}
		checkGateSlices(t, src)
		checkLSTMPasses(t, src)
		groups := len(src) / 4
		if groups == 0 {
			return
		}
		off := offFastPath[int(at8)%len(offFastPath)]
		for _, g := range []int{0, groups / 2, groups - 1} {
			placed := append([]float64(nil), src...)
			placed[4*g+int(at8/8)%4] = off
			checkGateSlices(t, placed)
		}
	})
}

// TestGateKernelsSlices runs the fuzz body's checks over a fixed grid in
// tier-1: every length 1–13, ordinary and boundary inputs, and each
// off-fast-path value in every group and lane; the LSTM's elementwise
// passes on the same lengths, with ±0, subnormals and ±Inf among the
// operands.
func TestGateKernelsSlices(t *testing.T) {
	if !wideGatesProbed {
		t.Skip("wide gate kernels unavailable")
	}
	s := stats.NewStream(3)
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), 1e300}
	for n := 1; n <= 13; n++ {
		src := make([]float64, n)
		for i := range src {
			src[i] = 12*s.Float64() - 6
		}
		checkGateSlices(t, src)
		checkLSTMPasses(t, src)
		mixed := append([]float64(nil), src...)
		for i := 0; i < n; i += 2 {
			mixed[i] = specials[(i/2+n)%len(specials)]
		}
		checkLSTMPasses(t, mixed)
		for i := 0; i < n&^3; i++ {
			for _, off := range offFastPath {
				placed := append([]float64(nil), src...)
				placed[i] = off
				checkGateSlices(t, placed)
			}
		}
	}
}

// TestGoldenKernelParity is the end-to-end cross-kernel check: training
// the same model under every kernel setting must produce byte-identical
// serialized artifacts, and batched inference on the trained model must
// produce bit-identical predictions, regardless of which kernels ran and
// of how the pool split the work (every entry of poolConfigs).
func TestGoldenKernelParity(t *testing.T) {
	kernels := kernelConfigs()
	if len(kernels) < 2 {
		t.Skip("only the Go loops available; nothing to cross-check")
	}
	type result struct {
		blob  []byte
		preds []Prediction
	}
	run := func(kn kernelConfig, pc poolConfig) result {
		setKernels(t, kn)
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
