package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mimicnet/internal/sim"
)

// Trace persistence: the paper's workflow dumps boundary packet traces
// from the small-scale simulation and trains models from the dumps
// (§5.1). These helpers serialize matched TraceRecords as JSON Lines so
// data generation and training can run as separate steps (cmd/trace
// writes them; cmd/mimicnet -trace reads them).

// traceLine is the serialized form of one record.
type traceLine struct {
	PktID   uint64     `json:"pkt"`
	Dir     string     `json:"dir"`
	Info    PacketInfo `json:"info"`
	Entry   int64      `json:"entry_ns"`
	Exit    int64      `json:"exit_ns"`
	Dropped bool       `json:"dropped,omitempty"`
	CEOut   bool       `json:"ce_out,omitempty"`
}

// WriteTrace streams matched records (entry order) as JSON Lines.
func WriteTrace(w io.Writer, records []*TraceRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		line := traceLine{
			PktID: r.PktID, Dir: r.Dir.String(), Info: r.Info,
			Entry: int64(r.Entry), Exit: int64(r.Exit),
			Dropped: r.Dropped, CEOut: r.CEOut,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSON Lines trace back into records, preserving
// order.
func ReadTrace(r io.Reader) ([]*TraceRecord, error) {
	var out []*TraceRecord
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var line traceLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("core: bad trace line %d: %w", len(out)+1, err)
		}
		var dir Direction
		switch line.Dir {
		case "ingress":
			dir = Ingress
		case "egress":
			dir = Egress
		default:
			return nil, fmt.Errorf("core: bad direction %q at line %d", line.Dir, len(out)+1)
		}
		out = append(out, &TraceRecord{
			PktID: line.PktID, Dir: dir, Info: line.Info,
			Entry: sim.Time(line.Entry), Exit: sim.Time(line.Exit),
			Dropped: line.Dropped, CEOut: line.CEOut, Matched: true,
		})
	}
	return out, nil
}

// splitTrace partitions records by direction, preserving order.
func splitTrace(records []*TraceRecord) (ingress, egress []*TraceRecord) {
	for _, r := range records {
		if r.Dir == Ingress {
			ingress = append(ingress, r)
		} else {
			egress = append(egress, r)
		}
	}
	return ingress, egress
}
