package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"mimicnet/internal/core"
	"mimicnet/internal/sim"
)

// TestMsToSimExact: every integer millisecond horizon maps to exactly
// that many milliseconds of simulated time. Truncating ms/1e3 seconds
// instead loses a nanosecond on 2 183 of the values below 100 000
// (1001 ms ran for 1 000 999 999 ns).
func TestMsToSimExact(t *testing.T) {
	if got := msToSim(1001); got != 1_001_000_000 {
		t.Fatalf("msToSim(1001) = %d ns", got)
	}
	for ms := 1; ms <= 100_000; ms++ {
		if got := msToSim(float64(ms)); got != sim.Time(ms)*sim.Millisecond {
			t.Fatalf("msToSim(%d) = %d ns", ms, got)
		}
	}
	if got := msToSim(0.5); got != 500*sim.Microsecond {
		t.Fatalf("msToSim(0.5) = %d ns", got)
	}
}

// TestJobSpecValidateRejectsOutsideInput: values the spec would carry
// into a run that then behaves differently from what its model key
// hashes (or NaN, which hashes to no key at all) are refused, naming
// the field by its JSON key.
func TestJobSpecValidateRejectsOutsideInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		spec  JobSpec
	}{
		{"load", JobSpec{Load: nan}},
		{"load", JobSpec{Load: -inf}},
		{"mean_flow_bytes", JobSpec{MeanFlowBytes: nan}},
		{"mean_flow_bytes", JobSpec{MeanFlowBytes: -5}},
		{"mean_flow_bytes", JobSpec{MeanFlowBytes: inf}},
		{"mean_flow_bytes", JobSpec{MeanFlowBytes: 1e30}},
		{"workload_ms", JobSpec{WorkloadMs: nan}},
		{"run_ms", JobSpec{RunMs: nan}},
		{"small_run_ms", JobSpec{SmallRunMs: nan}},
		{"deadline_ms", JobSpec{DeadlineMs: nan}},
		{"deadline_ms", JobSpec{DeadlineMs: inf}},
		{"ecn_k", JobSpec{ECNK: -1}},
		{"protocol", JobSpec{Protocol: "nope"}},
		{"tune_metric", JobSpec{Tune: 2, TuneMetric: "bogus"}},
	} {
		err := tc.spec.Normalized().Validate()
		if err == nil {
			t.Errorf("%s: spec %+v validated", tc.field, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
	if err := (JobSpec{ECNK: 0, MeanFlowBytes: 1}).Normalized().Validate(); err != nil {
		t.Errorf("smallest valid mean flow rejected: %v", err)
	}
}

// TestJobSummaryMatchesLocalEstimate: a daemon job and the CLI's local
// sequence (JobSpec.Datasets → JobSpec.Train → JobSpec.Estimate) deliver
// the same Summary once the wall-clock fields are zeroed, and the same
// artifact bytes, tuned or not.
func TestJobSummaryMatchesLocalEstimate(t *testing.T) {
	for _, tune := range []int{0, 2} {
		t.Run(fmt.Sprintf("tune=%d", tune), func(t *testing.T) {
			if tune > 0 && testing.Short() {
				t.Skip("tuning end-to-end is slow")
			}
			spec := tinySpec()
			spec.Clusters = 4 // past 2, so feeders run
			spec.Tune = tune
			spec = spec.Normalized()

			reg := newTestRegistry(t, 2)
			j, err := newTestScheduler(t, reg, 2, 1, nil).Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, j, StateDone)
			st := j.Status()

			ctx := context.Background()
			ing, eg, err := spec.Datasets(ctx)
			if err != nil {
				t.Fatal(err)
			}
			models, tr, err := spec.Train(ctx, ing, eg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (tr.Tuned != nil) != (tune > 0) {
				t.Fatalf("Tuned = %+v with tune %d", tr.Tuned, tune)
			}
			local, err := spec.Estimate(ctx, models, nil)
			if err != nil {
				t.Fatal(err)
			}

			daemon := *st.Result
			for _, sum := range []*Summary{&daemon, local} {
				if sum.ComposeMs <= 0 {
					t.Errorf("compose_ms %v not recorded", sum.ComposeMs)
				}
				sum.TrainMs, sum.ComposeMs, sum.SimSecPerSec, sum.CacheHit = 0, 0, 0, false
			}
			if daemon != *local {
				t.Fatalf("daemon summary %+v\n != local %+v", daemon, *local)
			}
			// The tuned models happen to drop nothing at this size.
			if local.InferenceSteps == 0 || local.FeederEvents == 0 ||
				tune == 0 && local.MimicDropsIngress+local.MimicDropsEgress == 0 {
				t.Errorf("degenerate estimate: %+v", *local)
			}

			stored, hit, err := reg.Get(ctx, st.ModelKey, func() (*core.MimicModels, error) {
				t.Fatal("the job's artifact is not in the registry")
				return nil, nil
			})
			if err != nil || !hit {
				t.Fatalf("registry lookup: hit %v, err %v", hit, err)
			}
			want, err := models.Save()
			if err != nil {
				t.Fatal(err)
			}
			got, err := stored.Save()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("daemon artifact differs from the local models")
			}
		})
	}
}
