package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mimicnet/internal/durable"
	"mimicnet/internal/ml"
	"mimicnet/internal/topo"
)

// legacySample is one sample in the seed's window-of-slices layout.
type legacySample struct {
	Window  [][]float64
	Latency float64
	Dropped bool
	ECN     bool
}

// legacyBuildSamples replicates the seed's window-of-slices dataset
// builder exactly: a ring of materialized padded windows, one sample
// per record. It is the golden reference the columnar buildDataset must
// match bit-for-bit.
func legacyBuildSamples(records []*TraceRecord, spec FeatureSpec, cfg DatasetConfig) []legacySample {
	bounds := boundsFromRecords(records)
	disc := ml.Discretizer{Lo: bounds.Lo, Hi: bounds.Hi, D: cfg.LatencyBins}
	ex := NewExtractor(spec, bounds.Lo, bounds.Hi)
	width := spec.Width()
	window := make([][]float64, 0, cfg.Window)
	var out []legacySample
	for _, r := range records {
		feat := ex.Features(r.Info)
		window = append(window, feat)
		if len(window) > cfg.Window {
			window = window[1:]
		}
		sample := legacySample{Dropped: r.Dropped, ECN: r.CEOut && !r.Info.CEIn}
		if r.Dropped {
			sample.Latency = 1.0
		} else {
			sample.Latency = disc.Normalize(r.Latency())
		}
		win := make([][]float64, cfg.Window)
		pad := cfg.Window - len(window)
		for i := 0; i < pad; i++ {
			win[i] = make([]float64, width)
		}
		copy(win[pad:], window)
		sample.Window = win
		out = append(out, sample)
		if r.Dropped {
			ex.ObserveOutcome(bounds.Hi, true)
		} else {
			ex.ObserveOutcome(r.Latency(), false)
		}
	}
	return out
}

// TestBuildDatasetMatchesLegacyLayout is the core-level golden parity
// check: the columnar dataset must hold bit-identical features and
// targets to the seed layout on a real traced run. (That identical
// inputs train identical models in either layout is ml's
// TestColumnarTrainingBitwiseParity.)
func TestBuildDatasetMatchesLegacyLayout(t *testing.T) {
	tr, inst := runTraced(t)
	ing, _ := tr.ByDirection()
	spec := NewFeatureSpec(inst.Cfg.Topo)
	dcfg := DatasetConfig{Window: 6, LatencyBins: 50}
	ds, err := buildDataset(Ingress, ing, spec, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyBuildSamples(ing, spec, dcfg)
	if ds.Len() != len(legacy) {
		t.Fatalf("sample counts: %d vs %d", ds.Len(), len(legacy))
	}
	var win [][]float64
	for i := range legacy {
		win = ds.Samples.WindowAppend(win[:0], i)
		for st := range win {
			for f := range win[st] {
				if win[st][f] != legacy[i].Window[st][f] {
					t.Fatalf("sample %d step %d feat %d: %v != %v",
						i, st, f, win[st][f], legacy[i].Window[st][f])
				}
			}
		}
		lat, dropped, ecn := ds.Samples.Target(i)
		if lat != legacy[i].Latency || dropped != legacy[i].Dropped || ecn != legacy[i].ECN {
			t.Fatalf("sample %d targets differ", i)
		}
	}

}

func TestSplitEdgeCases(t *testing.T) {
	spec := NewFeatureSpec(topo.DefaultConfig())

	// Empty dataset: both halves empty, no panic.
	empty, err := buildDataset(Ingress, nil, spec, DatasetConfig{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, te := empty.Split(0.8)
	if tr.Len() != 0 || te.Len() != 0 {
		t.Errorf("empty split: %d/%d", tr.Len(), te.Len())
	}

	// One-sample dataset under a real traced run's first record.
	tracer, inst := runTraced(t)
	ing, _ := tracer.ByDirection()
	one, err := buildDataset(Ingress, ing[:1], NewFeatureSpec(inst.Cfg.Topo), DatasetConfig{Window: 3, LatencyBins: 10})
	if err != nil {
		t.Fatal(err)
	}
	tr, te = one.Split(0.5)
	if tr.Len()+te.Len() != 1 {
		t.Errorf("one-sample split lost samples: %d/%d", tr.Len(), te.Len())
	}

	// trainFrac at or outside (0,1) falls back to the 0.8 default.
	full, err := buildDataset(Ingress, ing, NewFeatureSpec(inst.Cfg.Topo), DatasetConfig{Window: 3, LatencyBins: 10})
	if err != nil {
		t.Fatal(err)
	}
	wantCut := int(float64(full.Len()) * 0.8)
	for _, frac := range []float64{0, 1, -0.3, 1.7} {
		tr, te := full.Split(frac)
		if tr.Len() != wantCut || te.Len() != full.Len()-wantCut {
			t.Errorf("Split(%v) = %d/%d, want default 0.8 cut %d", frac, tr.Len(), te.Len(), wantCut)
		}
	}

	// The chronological invariant: split views share history, so the
	// test half's first window still sees pre-cut packets.
	trv, tev := full.Split(0.8)
	if trv.Len() > 0 && tev.Len() > 0 {
		var wantWin, gotWin [][]float64
		wantWin = full.Samples.WindowAppend(wantWin, trv.Len())
		gotWin = tev.WindowAppend(gotWin, 0)
		for st := range wantWin {
			for f := range wantWin[st] {
				if wantWin[st][f] != gotWin[st][f] {
					t.Fatal("test split lost pre-cut window history")
				}
			}
		}
	}
}

// TestDatasetFileRoundTrip proves the MNDSET01 container is a faithful
// persistence of the columnar datasets: every float, flag, bank entry,
// and interarrival survives bit-for-bit, so training from a loaded file
// is byte-identical to training from memory.
func TestDatasetFileRoundTrip(t *testing.T) {
	tr, inst := runTraced(t)
	ingRecs, egRecs := tr.ByDirection()
	spec := NewFeatureSpec(inst.Cfg.Topo)
	dcfg := DatasetConfig{Window: 5, LatencyBins: 40}
	ing, err := buildDataset(Ingress, ingRecs, spec, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	eg, err := buildDataset(Egress, egRecs, spec, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.dset")
	if err := WriteDatasetFile(path, ing, eg); err != nil {
		t.Fatal(err)
	}
	ing2, eg2, err := ReadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct{ a, b *Dataset }{{ing, ing2}, {eg, eg2}} {
		a, b := pair.a, pair.b
		if a.Dir != b.Dir || a.Spec != b.Spec || a.Bounds != b.Bounds || a.Disc != b.Disc ||
			a.DropRate != b.DropRate || a.ECNRate != b.ECNRate {
			t.Fatalf("%v metadata differs", a.Dir)
		}
		va, vb := a.Samples, b.Samples
		if va.Width != vb.Width || va.Window != vb.Window || va.Len() != vb.Len() {
			t.Fatalf("%v view shape differs", a.Dir)
		}
		for i := range va.Feats {
			if va.Feats[i] != vb.Feats[i] {
				t.Fatalf("%v feature %d differs", a.Dir, i)
			}
		}
		for i := 0; i < va.Len(); i++ {
			la, da, ea := va.Target(i)
			lb, db, eb := vb.Target(i)
			if la != lb || da != db || ea != eb {
				t.Fatalf("%v target %d differs", a.Dir, i)
			}
		}
		if len(a.InfoBank) != len(b.InfoBank) {
			t.Fatalf("%v bank size differs", a.Dir)
		}
		for i := range a.InfoBank {
			if a.InfoBank[i] != b.InfoBank[i] {
				t.Fatalf("%v bank entry %d differs", a.Dir, i)
			}
		}
		if len(a.Interarrivals) != len(b.Interarrivals) {
			t.Fatalf("%v interarrival count differs", a.Dir)
		}
		for i := range a.Interarrivals {
			if a.Interarrivals[i] != b.Interarrivals[i] {
				t.Fatalf("%v interarrival %d differs", a.Dir, i)
			}
		}
	}

	// Byte-identical training from the loaded dataset.
	mcfg := ml.DefaultModelConfig(spec.Width(), dcfg.Window)
	mcfg.Hidden = 8
	mcfg.Epochs = 1
	a, _ := ml.NewModel(mcfg)
	b, _ := ml.NewModel(mcfg)
	a.Train(ing.Samples)
	b.Train(ing2.Samples)
	ja, _ := a.MarshalJSON()
	jb, _ := b.MarshalJSON()
	if !bytes.Equal(ja, jb) {
		t.Fatal("training from the loaded dataset diverged from memory")
	}
}

func TestReadDatasetFileRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := ReadDatasetFile(filepath.Join(dir, "missing.dset")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
	path := filepath.Join(dir, "bad.dset")
	if err := os.WriteFile(path, []byte("MNDSET01 definitely not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDatasetFile(path); !errors.Is(err, durable.ErrCorrupt) {
		t.Errorf("garbage file: %v", err)
	}

	// A valid container whose payload was truncated before framing.
	if err := durable.WriteContainer(path, datasetFileMagic, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDatasetFile(path); !errors.Is(err, durable.ErrCorrupt) {
		t.Errorf("short payload: %v", err)
	}
}

func TestDatasetKey(t *testing.T) {
	base := fastBase()
	tcfg := fastTrain()
	k1, err := DatasetKey(base, 1000, tcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Model hyper-parameters and TrainFrac must NOT change the key.
	t2 := tcfg
	t2.Model.Hidden *= 2
	t2.Model.CellType = "mlp"
	t2.TrainFrac = 0.6
	k2, err := DatasetKey(base, 1000, t2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("model-only change altered the dataset key")
	}

	// Datagen knobs must change it.
	t3 := tcfg
	t3.Dataset.Window++
	if k3, _ := DatasetKey(base, 1000, t3); k3 == k1 {
		t.Error("window change did not alter the dataset key")
	}
	b2 := base
	b2.Workload.Seed++
	if k4, _ := DatasetKey(b2, 1000, tcfg); k4 == k1 {
		t.Error("seed change did not alter the dataset key")
	}
	if k5, _ := DatasetKey(base, 2000, tcfg); k5 == k1 {
		t.Error("small-run duration change did not alter the dataset key")
	}

	base.Protocol = nil
	if _, err := DatasetKey(base, 1000, tcfg); err == nil {
		t.Error("nil protocol accepted")
	}
}

// Every workload knob changes the traffic a dataset is generated from,
// so each must change the dataset key: a field the key does not hash
// lets two different datasets share one cache entry. The one exemption
// is HostLinkBps, which cluster.NewLayered overwrites from Link.RateBps
// (hashed as rate_bps) before any traffic is generated.
func TestDatasetKeyCoversWorkload(t *testing.T) {
	base, tcfg := fastBase(), fastTrain()
	k0, err := DatasetKey(base, 1000, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base.Workload)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "HostLinkBps" {
			continue
		}
		b := base
		v := reflect.ValueOf(&b.Workload).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float()*1.5 + 0.01)
		default:
			t.Errorf("workload.Config.%s: no perturbation for kind %s; add one and hash the field in DatasetKey", f.Name, v.Kind())
			continue
		}
		if k, err := DatasetKey(b, 1000, tcfg); err != nil {
			t.Fatal(err)
		} else if k == k0 {
			t.Errorf("changing workload.Config.%s left the dataset key unchanged", f.Name)
		}
	}
}
