package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"mimicnet/internal/durable"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
)

// Columnar dataset container: both directions' datasets in one
// self-validating file, so a datagen run can be persisted once and
// replayed by later training jobs with the same DatasetKey.
//
// The payload under the durable "MNDSET01" container framing is
//
//	uint32 meta length | meta JSON | binary sections (ingress, egress)
//
// The meta header carries everything JSON represents exactly (specs,
// bounds, discretizers, rates, section lengths); the bulk float and
// bool columns follow as raw little-endian sections so the feature
// matrix and targets round-trip bit-for-bit — training from a loaded
// dataset is byte-identical to training from the in-memory one.

// datasetFileMagic tags the on-disk columnar dataset container. Bump it
// whenever the payload layout changes: the magic is part of DatasetKey,
// so old cache entries simply miss rather than misparse.
const datasetFileMagic = "MNDSET01"

type datasetMeta struct {
	Dir           Direction      `json:"dir"`
	Spec          FeatureSpec    `json:"spec"`
	Bounds        LatencyBounds  `json:"bounds"`
	Disc          ml.Discretizer `json:"disc"`
	DropRate      float64        `json:"drop_rate"`
	ECNRate       float64        `json:"ecn_rate"`
	Width         int            `json:"width"`
	Window        int            `json:"window"`
	Samples       int            `json:"samples"`
	Bank          int            `json:"bank"`
	Interarrivals int            `json:"interarrivals"`
}

type datasetFileMeta struct {
	Ingress datasetMeta `json:"ingress"`
	Egress  datasetMeta `json:"egress"`
}

// infoBankStride is the fixed on-disk size of one PacketInfo entry:
// seven int64 fields plus three bool bytes.
const infoBankStride = 7*8 + 3

// WriteDatasetFile atomically persists both directions' datasets.
func WriteDatasetFile(path string, ing, eg *Dataset) error {
	if ing == nil || eg == nil || ing.Samples == nil || eg.Samples == nil {
		return fmt.Errorf("core: nil dataset")
	}
	meta := datasetFileMeta{Ingress: metaOf(ing), Egress: metaOf(eg)}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	payload := make([]byte, 0, 4+len(mb)+sectionBytes(ing)+sectionBytes(eg))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(mb)))
	payload = append(payload, mb...)
	payload = appendSections(payload, ing)
	payload = appendSections(payload, eg)
	return durable.WriteContainer(path, datasetFileMagic, payload)
}

// ReadDatasetFile loads both datasets back. A missing file surfaces the
// underlying os.ErrNotExist; framing, CRC, or layout damage returns
// durable.ErrCorrupt so callers can fall back to regenerating.
func ReadDatasetFile(path string) (ing, eg *Dataset, err error) {
	payload, err := durable.ReadContainer(path, datasetFileMagic)
	if err != nil {
		return nil, nil, err
	}
	if len(payload) < 4 {
		return nil, nil, durable.ErrCorrupt
	}
	mlen := int(binary.LittleEndian.Uint32(payload))
	rest := payload[4:]
	if mlen > len(rest) {
		return nil, nil, durable.ErrCorrupt
	}
	var meta datasetFileMeta
	if err := json.Unmarshal(rest[:mlen], &meta); err != nil {
		return nil, nil, durable.ErrCorrupt
	}
	rest = rest[mlen:]
	if ing, rest, err = readSections(rest, meta.Ingress); err != nil {
		return nil, nil, err
	}
	if eg, rest, err = readSections(rest, meta.Egress); err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, durable.ErrCorrupt
	}
	return ing, eg, nil
}

func metaOf(ds *Dataset) datasetMeta {
	return datasetMeta{
		Dir: ds.Dir, Spec: ds.Spec, Bounds: ds.Bounds, Disc: ds.Disc,
		DropRate: ds.DropRate, ECNRate: ds.ECNRate,
		Width: ds.Samples.Width, Window: ds.Samples.Window,
		Samples: ds.Len(), Bank: len(ds.InfoBank),
		Interarrivals: len(ds.Interarrivals),
	}
}

func sectionBytes(ds *Dataset) int {
	n := ds.Len()
	return 8*len(ds.Samples.Feats) + 8*n + 2*n +
		infoBankStride*len(ds.InfoBank) + 8*len(ds.Interarrivals)
}

func appendSections(buf []byte, ds *Dataset) []byte {
	v := ds.Samples
	buf = appendF64s(buf, v.Feats)
	buf = appendF64s(buf, v.Latency)
	buf = appendBools(buf, v.Dropped)
	buf = appendBools(buf, v.ECN)
	for _, p := range ds.InfoBank {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.LocalRack))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.LocalServer))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.LocalAgg))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Core))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.SizeBytes))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Priority))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.ArrivalTime))
		buf = append(buf, b2b(p.IsAck), b2b(p.ECT), b2b(p.CEIn))
	}
	buf = appendF64s(buf, ds.Interarrivals)
	return buf
}

func readSections(buf []byte, m datasetMeta) (*Dataset, []byte, error) {
	if m.Samples < 0 || m.Width < 0 || m.Window < 1 ||
		m.Bank < 0 || m.Interarrivals < 0 {
		return nil, nil, durable.ErrCorrupt
	}
	need := 8*m.Samples*m.Width + 8*m.Samples + 2*m.Samples +
		infoBankStride*m.Bank + 8*m.Interarrivals
	if need < 0 || len(buf) < need {
		return nil, nil, durable.ErrCorrupt
	}
	view := ml.NewSampleBank(m.Width, m.Window, m.Samples)
	view.Feats, buf = readF64s(view.Feats, buf, m.Samples*m.Width)
	view.Latency, buf = readF64s(view.Latency, buf, m.Samples)
	view.Dropped, buf = readBools(view.Dropped, buf, m.Samples)
	view.ECN, buf = readBools(view.ECN, buf, m.Samples)
	ds := &Dataset{
		Dir: m.Dir, Spec: m.Spec, Bounds: m.Bounds, Disc: m.Disc,
		DropRate: m.DropRate, ECNRate: m.ECNRate, Samples: view,
	}
	if m.Bank > 0 {
		ds.InfoBank = make([]PacketInfo, m.Bank)
		for i := range ds.InfoBank {
			p := &ds.InfoBank[i]
			p.LocalRack = int(binary.LittleEndian.Uint64(buf))
			p.LocalServer = int(binary.LittleEndian.Uint64(buf[8:]))
			p.LocalAgg = int(binary.LittleEndian.Uint64(buf[16:]))
			p.Core = int(binary.LittleEndian.Uint64(buf[24:]))
			p.SizeBytes = int(binary.LittleEndian.Uint64(buf[32:]))
			p.Priority = int(binary.LittleEndian.Uint64(buf[40:]))
			p.ArrivalTime = sim.Time(binary.LittleEndian.Uint64(buf[48:]))
			p.IsAck, p.ECT, p.CEIn = buf[56] != 0, buf[57] != 0, buf[58] != 0
			buf = buf[infoBankStride:]
		}
	}
	if m.Interarrivals > 0 {
		ds.Interarrivals, buf = readF64s(
			make([]float64, 0, m.Interarrivals), buf, m.Interarrivals)
	}
	return ds, buf, nil
}

func appendF64s(buf []byte, vals []float64) []byte {
	for _, f := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

func readF64s(dst []float64, buf []byte, n int) ([]float64, []byte) {
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	return dst, buf[8*n:]
}

func appendBools(buf []byte, vals []bool) []byte {
	for _, b := range vals {
		buf = append(buf, b2b(b))
	}
	return buf
}

func readBools(dst []bool, buf []byte, n int) ([]bool, []byte) {
	for i := 0; i < n; i++ {
		dst = append(dst, buf[i] != 0)
	}
	return dst, buf[n:]
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}
