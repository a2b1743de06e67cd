// Command sweep regenerates the paper's tables and figures (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for results).
//
// Examples:
//
//	sweep -experiment fig1 -sizes 4,8,16,32
//	sweep -experiment all -scale medium
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mimicnet/internal/experiments"
	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig1|fig2|table1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|table2|fig13|fig14|fig16|fig17|fig18|fig19|fig20|fig21|fig22|fig23|ablation-congestion|ablation-feeders|ablation-discretization|ablation-queues|ablation-feeder-dist|ablation-model-class|all")
		sizesFlag  = flag.String("sizes", "4,8,16,32", "comma-separated cluster counts")
		largeFlag  = flag.Int("large", 16, "cluster count for the 'large' use-case experiments")
		scale      = flag.String("scale", "small", "small|medium|paper experiment scale")
		verbose    = flag.Bool("v", false, "progress logging to stderr")
	)
	flag.Parse()

	spec, ok := map[string]serve.JobSpec{
		"small": experiments.Default(),
		"medium": {
			MeanFlowBytes: 50_000,
			WorkloadMs:    300, RunMs: 600, SmallRunMs: 500,
			Window: 12, Hidden: 24, Epochs: 4,
		},
		"paper": {
			MeanFlowBytes: 1.6e6,
			WorkloadMs:    2000, RunMs: 4000, SmallRunMs: 2000,
			Window: 12, Hidden: 32, Epochs: 6,
		},
	}[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(1)
	}
	sizes := parseSizes(*sizesFlag)
	// The largest composition the sweep asks for is held to the daemon's
	// limits too.
	spec.Clusters = max(maxOf(sizes), *largeFlag)
	r := experiments.NewRunner(spec)
	if err := r.Spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if *verbose {
		r.Log = os.Stderr
	}

	type job struct {
		name string
		run  func() ([]*experiments.Table, error)
	}
	one := func(f func() (*experiments.Table, error)) func() ([]*experiments.Table, error) {
		return func() ([]*experiments.Table, error) {
			t, err := f()
			if err != nil {
				return nil, err
			}
			return []*experiments.Table{t}, nil
		}
	}
	jobs := []job{
		{"fig1", one(func() (*experiments.Table, error) { return r.Fig1(sizes) })},
		{"fig2", one(func() (*experiments.Table, error) { return r.Fig2([]int{4, 8, 16, 32}) })},
		{"table1", one(r.Table1)},
		{"fig5", one(r.Fig5)},
		{"fig6", one(r.Fig6)},
		{"fig7", one(func() (*experiments.Table, error) { return r.Fig7(2, *largeFlag) })},
		{"fig8", one(func() (*experiments.Table, error) { return r.Fig8(sizes) })},
		{"fig9", one(func() (*experiments.Table, error) { return r.Fig9(sizes) })},
		{"fig10", one(func() (*experiments.Table, error) { return r.Fig10(sizes, []int{2, 4}) })},
		{"fig11", one(func() (*experiments.Table, error) { return r.Fig11(sizes) })},
		{"fig12", one(func() (*experiments.Table, error) { return r.Fig12(sizes) })},
		{"table2", one(func() (*experiments.Table, error) { return r.Table2(maxOf(sizes)) })},
		{"fig13", one(func() (*experiments.Table, error) {
			return r.Fig13(*largeFlag, []int{5, 10, 20, 40, 60, 80})
		})},
		{"fig14", one(func() (*experiments.Table, error) { return r.Fig14(*largeFlag) })},
		{"fig16", one(func() (*experiments.Table, error) { return r.Fig16([]int{1, 2, 5, 10, 12, 20}) })},
		{"fig17", one(func() (*experiments.Table, error) { return r.Fig17([]int{1, 2, 5, 10, 12, 20}) })},
		{"fig18", one(func() (*experiments.Table, error) { return r.Fig18(*largeFlag) })},
		{"fig19", one(func() (*experiments.Table, error) { return r.Fig19(*largeFlag) })},
		{"fig20", one(func() (*experiments.Table, error) { return r.Fig20(*largeFlag) })},
		{"fig21", nil}, // handled jointly below
		{"fig22", nil},
		{"fig23", one(func() (*experiments.Table, error) { return r.Fig23(sizes) })},
		{"ablation-congestion", one(func() (*experiments.Table, error) { return r.AblationCongestionState(*largeFlag) })},
		{"ablation-feeders", one(func() (*experiments.Table, error) { return r.AblationFeeders(*largeFlag) })},
		{"ablation-discretization", one(func() (*experiments.Table, error) {
			return r.AblationDiscretization([]int{1, 10, 100, 1000})
		})},
		{"ablation-queues", one(func() (*experiments.Table, error) { return r.AblationQueues(4) })},
		{"ablation-feeder-dist", one(func() (*experiments.Table, error) { return r.AblationFeederDistribution(*largeFlag) })},
		{"ablation-model-class", one(func() (*experiments.Table, error) { return r.AblationModelClass(*largeFlag) })},
	}
	fig2122 := func() ([]*experiments.Table, error) {
		run := r.Spec.RunTime()
		lat, tput, err := r.Fig21And22(maxOf(sizes), []sim.Time{run, 2 * run, 4 * run})
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{lat, tput}, nil
	}
	for i := range jobs {
		if jobs[i].name == "fig21" || jobs[i].name == "fig22" {
			jobs[i].run = fig2122
		}
	}

	ran := false
	seen2122 := false
	start := time.Now()
	for _, j := range jobs {
		if *experiment != "all" && *experiment != j.name {
			continue
		}
		if j.name == "fig21" || j.name == "fig22" {
			if seen2122 && *experiment == "all" {
				continue
			}
			seen2122 = true
		}
		tables, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(1)
	}
	fmt.Printf("total sweep time: %v\n", time.Since(start).Round(time.Second))
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", part)
			os.Exit(1)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		out = []int{4, 8}
	}
	return out
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
