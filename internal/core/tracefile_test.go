package core

import (
	"bytes"
	"strings"
	"testing"

	"mimicnet/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	tr, inst := runTraced(t)
	records := tr.Records()
	if len(records) == 0 {
		t.Fatal("no records")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(records) {
		t.Fatalf("round trip lost records: %d -> %d", len(records), len(back))
	}
	for i := range records {
		a, b := records[i], back[i]
		if a.PktID != b.PktID || a.Dir != b.Dir || a.Entry != b.Entry ||
			a.Exit != b.Exit || a.Dropped != b.Dropped || a.CEOut != b.CEOut ||
			a.Info != b.Info {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
		if !b.Matched {
			t.Fatal("restored record not marked matched")
		}
	}

	// Datasets built from the file match datasets built in-memory.
	ingMem, egMem := tr.ByDirection()
	ingFile, egFile := splitTrace(back)
	if len(ingFile) != len(ingMem) || len(egFile) != len(egMem) {
		t.Fatal("direction split differs after round trip")
	}
	spec := NewFeatureSpec(inst.Cfg.Topo)
	dcfg := DatasetConfig{Window: 4, LatencyBins: 50}
	dsMem, err := buildDataset(Ingress, ingMem, spec, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	dsFile, err := buildDataset(Ingress, ingFile, spec, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if dsMem.Len() != dsFile.Len() {
		t.Fatal("sample counts differ")
	}
	for i := 0; i < dsMem.Len(); i++ {
		aLat, aDrop, _ := dsMem.Samples.Target(i)
		bLat, bDrop, _ := dsFile.Samples.Target(i)
		if aLat != bLat || aDrop != bDrop {
			t.Fatalf("sample %d targets differ", i)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(strings.NewReader(`{"dir":"sideways"}` + "\n")); err == nil {
		t.Error("bad direction accepted")
	}
	recs, err := ReadTrace(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Error("empty trace should parse to zero records")
	}
}

func TestTrainFromFileComposes(t *testing.T) {
	tr, inst := runTraced(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr.Records()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ing, eg := splitTrace(back)
	spec := NewFeatureSpec(inst.Cfg.Topo)
	tcfg := fastTrain()
	ingDS, err := buildDataset(Ingress, ing, spec, tcfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	egDS, err := buildDataset(Egress, eg, spec, tcfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	models, _, _, err := TrainModels(ingDS, egDS, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastBase()
	cfg.Topo = cfg.Topo.WithClusters(3)
	comp, err := Compose(cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	comp.Run(150 * sim.Millisecond)
	if comp.FlowsCompleted() == 0 {
		t.Error("file-trained models completed no flows")
	}
}
