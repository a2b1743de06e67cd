package ml

import (
	"bytes"
	"testing"
)

// TestViewWindowMatchesLegacy pins the columnar view's index math: for
// every sample, Row/WindowAppend must reproduce the legacy padded
// window bit-for-bit, including the shared zero rows before the stream
// starts and across a Slice boundary (a sliced view keeps its pre-cut
// history visible, exactly like the legacy per-sample copies).
func TestViewWindowMatchesLegacy(t *testing.T) {
	const n, features, window = 37, 3, 5
	legacy, view := synthStream(n, features, window, 71)
	if view.Len() != n || view.Steps() != window {
		t.Fatalf("view shape: len %d steps %d", view.Len(), view.Steps())
	}
	checkParity := func(v *SampleView, base int) {
		t.Helper()
		var win [][]float64
		for i := 0; i < v.Len(); i++ {
			win = v.WindowAppend(win[:0], i)
			want := legacy[base+i]
			if len(win) != len(want.Window) {
				t.Fatalf("sample %d window len %d != %d", base+i, len(win), len(want.Window))
			}
			for st := range win {
				for f := range win[st] {
					if win[st][f] != want.Window[st][f] {
						t.Fatalf("sample %d step %d feat %d: %v != %v",
							base+i, st, f, win[st][f], want.Window[st][f])
					}
				}
			}
			lat, dropped, ecn := v.Target(i)
			if lat != want.Latency || dropped != want.Dropped || ecn != want.ECN {
				t.Fatalf("sample %d targets differ", base+i)
			}
		}
	}
	checkParity(view, 0)
	cut := n * 4 / 5
	checkParity(view.Slice(0, cut), 0)
	checkParity(view.Slice(cut, n), cut)

}

// TestColumnarTrainingBitwiseParity is the layout-refactor contract:
// training on the columnar view must produce byte-identical model
// artifacts and identical predictions to training on the legacy
// []Sample layout, for every trunk class, on both the sequential
// (BatchSize 1) and batched BPTT paths, under every pool setting of
// poolConfigs (Train reaches the pool through SharedPool). make
// test-kernels reruns this under the purego build and, on AVX2 hosts,
// with GODEBUG=cpu.fma=off (rowsAcc beside the Go gates).
func TestColumnarTrainingBitwiseParity(t *testing.T) {
	forEachPool(t, func(t *testing.T, _ *Pool) {
		for name, cfg := range cellConfigs() {
			for _, bs := range []int{1, 16} {
				cfg := cfg
				cfg.BatchSize = bs
				cfg.Epochs = 2
				legacy, view := synthStream(120, cfg.Features, cfg.Window, 101)

				a, err := NewModel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewModel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				resA := a.Train(samplesOf(legacy))
				resB := b.Train(view)
				if len(resA.EpochLoss) != len(resB.EpochLoss) {
					t.Fatalf("%s bs=%d: epoch counts differ", name, bs)
				}
				for e := range resA.EpochLoss {
					if resA.EpochLoss[e] != resB.EpochLoss[e] {
						t.Fatalf("%s bs=%d epoch %d: loss %v != %v",
							name, bs, e, resA.EpochLoss[e], resB.EpochLoss[e])
					}
				}

				ja, err := a.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				jb, err := b.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ja, jb) {
					t.Fatalf("%s bs=%d: trained artifacts are not byte-identical", name, bs)
				}

				if ea, eb := a.Evaluate(samplesOf(legacy)), b.Evaluate(view); ea != eb {
					t.Fatalf("%s bs=%d: evaluations differ: %+v vs %+v", name, bs, ea, eb)
				}
				var win [][]float64
				for i := 0; i < view.Len(); i++ {
					win = view.WindowAppend(win[:0], i)
					if pa, pb := a.Forward(legacy[i].Window), b.Forward(win); pa != pb {
						t.Fatalf("%s bs=%d sample %d: predictions differ", name, bs, i)
					}
				}
			}
		}
	})
}

// TestViewSliceAndWithLatency covers the remaining view surface: slice
// bounds, target substitution, and the byte-accounting helper.
func TestViewSliceAndWithLatency(t *testing.T) {
	_, view := synthStream(10, 2, 3, 7)
	empty := view.Slice(4, 4)
	if empty.Len() != 0 {
		t.Errorf("empty slice len %d", empty.Len())
	}
	lat := make([]float64, view.Len())
	for i := range lat {
		lat[i] = float64(i)
	}
	re := view.WithLatency(lat)
	if l, _, _ := re.Target(3); l != 3 {
		t.Errorf("WithLatency target = %v", l)
	}
	if l, _, _ := view.Target(3); l == 3 {
		t.Error("WithLatency mutated the original view")
	}
	var win1, win2 [][]float64
	win1 = view.WindowAppend(win1, 5)
	win2 = re.WindowAppend(win2, 5)
	for st := range win1 {
		for f := range win1[st] {
			if win1[st][f] != win2[st][f] {
				t.Fatal("WithLatency changed feature rows")
			}
		}
	}
	if view.Bytes() <= 0 {
		t.Error("Bytes() not positive")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithLatency accepted mismatched length")
		}
	}()
	view.WithLatency(lat[:2])
}
