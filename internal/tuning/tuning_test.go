package tuning

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mimicnet/internal/cluster"
	"mimicnet/internal/core"
	"mimicnet/internal/ml"
	"mimicnet/internal/sim"
	"mimicnet/internal/workload"
)

func TestCholeskyAndSolve(t *testing.T) {
	// A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt(2)]]
	a := [][]float64{{4, 2}, {2, 3}}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l[0][0]-2) > 1e-12 || math.Abs(l[1][0]-1) > 1e-12 ||
		math.Abs(l[1][1]-math.Sqrt(2)) > 1e-12 {
		t.Errorf("L = %v", l)
	}
	// Solve A x = b with b = [8, 7] => x = [1.25, 1.5].
	x := choleskySolve(l, []float64{8, 7})
	if math.Abs(x[0]-1.25) > 1e-9 || math.Abs(x[1]-1.5) > 1e-9 {
		t.Errorf("x = %v", x)
	}
	if _, err := cholesky([][]float64{{-1}}); err == nil {
		t.Error("non-PD matrix accepted")
	}
}

func TestGPInterpolates(t *testing.T) {
	// GP with tiny noise should nearly interpolate its training points.
	x := [][]float64{{0.1}, {0.5}, {0.9}}
	y := []float64{1, 3, 2}
	g, err := newGP(x, y, 0.3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		m, v := g.predict(x[i])
		if math.Abs(m-y[i]) > 0.05 {
			t.Errorf("mean at train point %d = %v, want %v", i, m, y[i])
		}
		if v > 0.05 {
			t.Errorf("variance at train point %d = %v, want tiny", i, v)
		}
	}
	// Far from data: variance grows.
	_, vFar := g.predict([]float64{3.0})
	if vFar < 0.5 {
		t.Errorf("variance far from data = %v, want large", vFar)
	}
}

func TestExpectedImprovement(t *testing.T) {
	x := [][]float64{{0.0}, {1.0}}
	y := []float64{1, 1}
	g, _ := newGP(x, y, 0.2, 1e-6)
	// EI should be ~0 at known points (no improvement, no uncertainty)
	// and positive between them.
	eiKnown := g.expectedImprovement([]float64{0.0}, 1)
	eiMid := g.expectedImprovement([]float64{0.5}, 1)
	if eiMid <= eiKnown {
		t.Errorf("EI mid %v should exceed EI at known point %v", eiMid, eiKnown)
	}
}

func TestSpaceValidation(t *testing.T) {
	if err := (Space{}).Validate(); err == nil {
		t.Error("empty space accepted")
	}
	if err := (Space{{Name: "a", Lo: 1, Hi: 1}}).Validate(); err == nil {
		t.Error("empty range accepted")
	}
	if err := (Space{{Name: "a", Lo: 0, Hi: 1, Log: true}}).Validate(); err == nil {
		t.Error("log with zero bound accepted")
	}
}

func TestParamMapping(t *testing.T) {
	p := Param{Name: "x", Lo: 10, Hi: 1000, Log: true}
	if v := p.fromUnit(0); math.Abs(v-10) > 1e-9 {
		t.Errorf("fromUnit(0) = %v", v)
	}
	if v := p.fromUnit(1); math.Abs(v-1000) > 1e-9 {
		t.Errorf("fromUnit(1) = %v", v)
	}
	if v := p.fromUnit(0.5); math.Abs(v-100) > 1e-9 {
		t.Errorf("log fromUnit(0.5) = %v, want 100", v)
	}
	pi := Param{Name: "n", Lo: 1, Hi: 5, Integer: true}
	if v := pi.fromUnit(0.49); v != math.Round(1+0.49*4) {
		t.Errorf("integer rounding = %v", v)
	}
	if v := pi.fromUnit(-1); v != 1 {
		t.Errorf("clamping low = %v", v)
	}
	if v := pi.fromUnit(2); v != 5 {
		t.Errorf("clamping high = %v", v)
	}
}

// quadratic is a test objective with a known minimum.
func quadratic(opt map[string]float64) (float64, error) {
	x := opt["x"]
	y := opt["y"]
	return (x-0.3)*(x-0.3) + (y-0.7)*(y-0.7), nil
}

func quadSpace() Space {
	return Space{
		{Name: "x", Lo: 0, Hi: 1},
		{Name: "y", Lo: 0, Hi: 1},
	}
}

// Random search is BayesOpt's warm-up on its own: InitPoints uniform
// draws from Seed, scored on up to Workers goroutines, no GP iterations.
func TestRandomSearchFindsDecentPoint(t *testing.T) {
	res, err := BayesOpt(quadSpace(), quadratic, BayesOptConfig{InitPoints: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score > 0.1 {
		t.Errorf("random search best = %v", res.Best.Score)
	}
	if len(res.History) != 60 {
		t.Errorf("history = %d", len(res.History))
	}
}

// pointsEqual compares two search points bitwise.
func pointsEqual(a, b Point) bool {
	if a.Score != b.Score || (a.Err == nil) != (b.Err == nil) || len(a.Params) != len(b.Params) {
		return false
	}
	for k, v := range a.Params {
		if b.Params[k] != v {
			return false
		}
	}
	return true
}

func TestRandomSearchParallelMatchesSerial(t *testing.T) {
	serial, err := BayesOpt(quadSpace(), quadratic, BayesOptConfig{InitPoints: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 64} {
		par, err := BayesOpt(quadSpace(), quadratic, BayesOptConfig{InitPoints: 40, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !pointsEqual(par.Best, serial.Best) {
			t.Fatalf("workers=%d best %+v != serial %+v", workers, par.Best, serial.Best)
		}
		if len(par.History) != len(serial.History) {
			t.Fatalf("workers=%d history length %d != %d", workers, len(par.History), len(serial.History))
		}
		for i := range par.History {
			if !pointsEqual(par.History[i], serial.History[i]) {
				t.Fatalf("workers=%d history[%d] diverged", workers, i)
			}
		}
	}
}

func TestBayesOptParallelWarmupMatchesSerial(t *testing.T) {
	cfg := DefaultBayesOptConfig()
	cfg.InitPoints = 8
	cfg.Iterations = 6
	cfg.Seed = 9
	serial, err := BayesOpt(quadSpace(), quadratic, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := BayesOpt(quadSpace(), quadratic, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pointsEqual(par.Best, serial.Best) {
		t.Fatalf("parallel warm-up best %+v != serial %+v", par.Best, serial.Best)
	}
	for i := range serial.History {
		if !pointsEqual(par.History[i], serial.History[i]) {
			t.Fatalf("history[%d] diverged with parallel warm-up", i)
		}
	}
}

func TestBayesOptBeatsRandomAtEqualBudget(t *testing.T) {
	budget := 24
	rnd, err := BayesOpt(quadSpace(), quadratic, BayesOptConfig{InitPoints: budget, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultBayesOptConfig()
	cfg.InitPoints = 6
	cfg.Iterations = budget - cfg.InitPoints
	cfg.Seed = 7
	bo, err := BayesOpt(quadSpace(), quadratic, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// BO should be at least competitive; allow slack for the toy setup.
	if bo.Best.Score > rnd.Best.Score*2+0.01 {
		t.Errorf("BO best %v much worse than random %v", bo.Best.Score, rnd.Best.Score)
	}
	if len(bo.History) != budget {
		t.Errorf("BO history = %d, want %d", len(bo.History), budget)
	}
}

func TestSearchSurvivesObjectiveErrors(t *testing.T) {
	n := 0
	flaky := func(p map[string]float64) (float64, error) {
		n++
		if n%2 == 0 {
			return 0, errors.New("boom")
		}
		return p["x"], nil
	}
	space := Space{{Name: "x", Lo: 0, Hi: 1}}
	res, err := BayesOpt(space, flaky, BayesOptConfig{InitPoints: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Best.Score, 1) {
		t.Error("no successful evaluation kept")
	}
	bo, err := BayesOpt(space, flaky, BayesOptConfig{InitPoints: 4, Iterations: 6, Candidates: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(bo.Best.Score, 1) {
		t.Error("BO kept no successful evaluation")
	}
}

func TestAllFailingObjective(t *testing.T) {
	bad := func(map[string]float64) (float64, error) { return 0, errors.New("no") }
	space := Space{{Name: "x", Lo: 0, Hi: 1}}
	if _, err := BayesOpt(space, bad, BayesOptConfig{InitPoints: 3, Seed: 1}); err == nil {
		t.Error("all-failing random search should error")
	}
	if _, err := BayesOpt(space, bad, BayesOptConfig{InitPoints: 2, Iterations: 2, Candidates: 8}); err == nil {
		t.Error("all-failing BO should error")
	}
}

func TestApplyParams(t *testing.T) {
	base := core.DefaultTrainConfig()
	got := ApplyParams(base, map[string]float64{
		"drop_weight": 0.9, "huber_delta": 2.5, "layers": 2,
		"hidden": 32, "epochs": 6, "lr": 0.001,
	})
	if got.Model.DropWeight != 0.9 || got.Model.HuberDelta != 2.5 ||
		got.Model.Layers != 2 || got.Model.Hidden != 32 ||
		got.Model.Epochs != 6 || got.Model.LR != 0.001 {
		t.Errorf("ApplyParams = %+v", got.Model)
	}
	// Untouched params keep base values.
	got2 := ApplyParams(base, nil)
	if got2.Model.Hidden != base.Model.Hidden {
		t.Error("nil params changed config")
	}
}

func TestMimicSpaceValid(t *testing.T) {
	if err := MimicSpace().Validate(); err != nil {
		t.Fatal(err)
	}
}

// End-to-end tuning smoke test with a tiny budget.
func TestValidatorAndObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning end-to-end is slow")
	}
	base := cluster.DefaultConfig(2)
	base.Workload = workload.DefaultConfig(20_000)
	base.Workload.Duration = 100 * sim.Millisecond

	// Held-out validation workload uses a different seed (paper §8).
	valBase := base
	valBase.Workload.Seed = 99
	v, err := NewValidator(context.Background(), valBase, []int{2, 3}, 200*sim.Millisecond, "fct")
	if err != nil {
		t.Fatal(err)
	}

	tcfg := core.DefaultTrainConfig()
	tcfg.Dataset.Window = 4
	tcfg.Model = ml.DefaultModelConfig(0, 4)
	tcfg.Model.Hidden = 8
	tcfg.Model.Epochs = 1
	ing, eg, _, err := core.GenerateTrainingData(base, 150*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	obj := MimicObjective(context.Background(), ing, eg, tcfg, v)
	res, err := BayesOpt(MimicSpace(), func(p map[string]float64) (float64, error) {
		// Pin the expensive dimensions for test speed.
		p["hidden"] = 8
		p["epochs"] = 1
		p["layers"] = 1
		return obj(p)
	}, BayesOptConfig{InitPoints: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Best.Score, 1) || math.IsNaN(res.Best.Score) {
		t.Errorf("tuning score = %v", res.Best.Score)
	}
	t.Logf("best tuning score (mean W1 FCT): %v with %v", res.Best.Score, res.Best.Params)
}

// TestMimicObjectiveParallelTrialsMatchSerial runs the real tuning
// objective (train + compose + validate) through the parallel warm-up
// and asserts it selects the exact best params the serial search does —
// trials share the built datasets and validator references, and the whole
// pipeline is deterministic per candidate.
func TestMimicObjectiveParallelTrialsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning end-to-end is slow")
	}
	base := cluster.DefaultConfig(2)
	base.Workload = workload.DefaultConfig(20_000)
	base.Workload.Duration = 100 * sim.Millisecond

	valBase := base
	valBase.Workload.Seed = 99
	v, err := NewValidator(context.Background(), valBase, []int{2}, 150*sim.Millisecond, "fct")
	if err != nil {
		t.Fatal(err)
	}

	tcfg := core.DefaultTrainConfig()
	tcfg.Dataset.Window = 4
	tcfg.Model = ml.DefaultModelConfig(0, 4)
	tcfg.Model.Hidden = 8
	tcfg.Model.Epochs = 1
	ing, eg, _, err := core.GenerateTrainingData(base, 150*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	obj := MimicObjective(context.Background(), ing, eg, tcfg, v)
	cheap := func(p map[string]float64) (float64, error) {
		// Pin the expensive dimensions for test speed.
		p["hidden"] = 8
		p["epochs"] = 1
		p["layers"] = 1
		return obj(p)
	}
	serial, err := BayesOpt(MimicSpace(), cheap, BayesOptConfig{InitPoints: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BayesOpt(MimicSpace(), cheap, BayesOptConfig{InitPoints: 3, Seed: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !pointsEqual(par.Best, serial.Best) {
		t.Fatalf("parallel trials best %+v != serial %+v", par.Best, serial.Best)
	}
}

// TestTuneTrainingCancelled: a done context stops the search at the
// next training step or simulation tick and TuneTraining reports ctx's
// error, not "every evaluation failed" and not the rest of the budget.
func TestTuneTrainingCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning end-to-end is slow")
	}
	base := cluster.DefaultConfig(2)
	base.Workload = workload.DefaultConfig(20_000)
	base.Workload.Duration = 100 * sim.Millisecond
	tcfg := core.DefaultTrainConfig()
	tcfg.Dataset.Window = 4
	tcfg.Model = ml.DefaultModelConfig(0, 4)
	ing, eg, _, err := core.GenerateTrainingData(base, 150*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TuneTraining(pre, base, 150*sim.Millisecond, ing, eg, tcfg, 2, "fct"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err %v, want context.Canceled", err)
	}

	// A budget of 20 trials takes seconds; the deadline lands inside the
	// validator's reference runs or the first trials.
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err = TuneTraining(ctx, base, 150*sim.Millisecond, ing, eg, tcfg, 20, "fct")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-search: err %v, want context.DeadlineExceeded", err)
	}
	if late := time.Since(start) - deadline; late > 2*time.Second {
		t.Fatalf("TuneTraining returned %v after its deadline", late)
	}
}

func TestValidatorRejectsUnknownMetric(t *testing.T) {
	base := cluster.DefaultConfig(2)
	base.Workload = workload.DefaultConfig(20_000)
	base.Workload.Duration = 20 * sim.Millisecond
	if _, err := NewValidator(context.Background(), base, []int{2}, 50*sim.Millisecond, "bogus"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestValidatorMSEMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning end-to-end is slow")
	}
	base := cluster.DefaultConfig(2)
	base.Workload = workload.DefaultConfig(20_000)
	base.Workload.Duration = 100 * sim.Millisecond
	v, err := NewValidator(context.Background(), base, []int{2}, 250*sim.Millisecond, "fct-mse")
	if err != nil {
		t.Fatal(err)
	}
	tcfg := core.DefaultTrainConfig()
	tcfg.Dataset.Window = 4
	tcfg.Model = ml.DefaultModelConfig(0, 4)
	tcfg.Model.Hidden = 8
	tcfg.Model.Epochs = 1
	ing, eg, _, err := core.GenerateTrainingData(base, 150*sim.Millisecond, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	models, _, _, err := core.TrainModels(ing, eg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	score, err := v.Score(context.Background(), models)
	if err != nil {
		t.Fatal(err)
	}
	// A 2-cluster composition shares the workload schedule with the
	// reference, so overlap should clear the 80% bar and yield a finite
	// MSE.
	if math.IsNaN(score) || math.IsInf(score, 1) {
		t.Fatalf("fct-mse score = %v (overlap below threshold?)", score)
	}
	t.Logf("fct-mse validation score: %v", score)
}

func TestValidatorKSMetric(t *testing.T) {
	base := cluster.DefaultConfig(2)
	base.Workload = workload.DefaultConfig(20_000)
	base.Workload.Duration = 60 * sim.Millisecond
	v, err := NewValidator(context.Background(), base, []int{2}, 150*sim.Millisecond, "fct-ks")
	if err != nil {
		t.Fatal(err)
	}
	if v.Metric != "fct-ks" {
		t.Error("metric not stored")
	}
	if _, err := NewValidator(context.Background(), base, []int{2}, 150*sim.Millisecond, "bogus-ks"); err == nil {
		t.Error("bogus -ks metric accepted")
	}
}
