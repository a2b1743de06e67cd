package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads: the
// bounds for -compare, and the names its own tables must agree with.
type benchmarkSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadSpec reads BENCHMARK.json from path, or from the directory above
// when the benchmark is run from its own directory.
func loadSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	err := readJSON(path, &spec)
	if os.IsNotExist(err) && !filepath.IsAbs(path) {
		err = readJSON(filepath.Join("..", path), &spec)
	}
	return spec, err
}

// compareFiles judges result file b against a by the bounds in the
// benchmark's specification and reports whether anything got worse.
func compareFiles(specPath, aPath, bPath string) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	var a, b resultFile
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	fmt.Printf("A: %s  commit %s  ncpu %d  %s\nB: %s  commit %s  ncpu %d  %s\n",
		aPath, a.Host.Commit, a.Host.NCPU, a.Host.GemmKernel, bPath, b.Host.Commit, b.Host.NCPU, b.Host.GemmKernel)
	inB := map[string]workloadResult{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			fmt.Printf("%-18s missing from B\n", wa.Name)
			regressed = true
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			worse := ratio(mb.Value-ma.Value, ma.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case ratio(ma.Q3-ma.Q1, ma.Value) > m.Bound:
				// A cannot tell a change of this size from its own noise.
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Printf("%-18s %-16s A %.6g [%.6g, %.6g] n=%d  B %.6g [%.6g, %.6g] n=%d  %+.1f%% worse, bound %.0f%%  %s\n",
				wa.Name, m.Name, ma.Value, ma.Q1, ma.Q3, ma.N, mb.Value, mb.Q1, mb.Q3, mb.N, 100*worse, 100*m.Bound, verdict)
		}
		for _, m := range perLayer {
			if !m.exact {
				continue
			}
			ca, cb := wa.PerLayer[m.name].Value, wb.PerLayer[m.name].Value
			if ca == 0 && cb == 0 {
				continue // a layer this workload does not use
			}
			verdict := "equal"
			if ca != cb {
				verdict = "DIFFERS"
				regressed = true
			}
			fmt.Printf("%-18s %-24s A %.12g  B %.12g  %s\n", wa.Name, m.name, ca, cb, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("%-18s failed ops A %d  B %d  REGRESSION\n", wa.Name, wa.Failed, wb.Failed)
			regressed = true
		}
	}
	return regressed, nil
}
