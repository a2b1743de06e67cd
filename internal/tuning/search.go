package tuning

import (
	"fmt"
	"math"
	"sync"

	"mimicnet/internal/stats"
)

// param is one tunable dimension.
type param struct {
	Name    string
	Lo, Hi  float64
	Integer bool // round to integers
	Log     bool // sample on a log scale
}

// space is the search space.
type space []param

// Validate reports structural errors.
func (s space) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("tuning: empty search space")
	}
	for _, p := range s {
		if p.Hi <= p.Lo {
			return fmt.Errorf("tuning: param %q has empty range", p.Name)
		}
		if p.Log && p.Lo <= 0 {
			return fmt.Errorf("tuning: log param %q needs positive bounds", p.Name)
		}
	}
	return nil
}

// fromUnit maps a [0,1] coordinate back to a concrete value.
func (p param) fromUnit(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	var v float64
	if p.Log {
		v = math.Exp(math.Log(p.Lo) + u*(math.Log(p.Hi)-math.Log(p.Lo)))
	} else {
		v = p.Lo + u*(p.Hi-p.Lo)
	}
	if p.Integer {
		v = math.Round(v)
	}
	return v
}

// Point is one evaluated configuration.
type Point struct {
	Params map[string]float64
	Score  float64 // lower is better
	Err    error
}

// objective evaluates a configuration and returns its score (lower is
// better) — e.g. the mean W1(FCT) across validation sizes.
type objective func(params map[string]float64) (float64, error)

func (s space) concretize(unit []float64) map[string]float64 {
	out := make(map[string]float64, len(s))
	for i, p := range s {
		out[p.Name] = p.fromUnit(unit[i])
	}
	return out
}

func (s space) sampleUnit(rng *stats.Stream) []float64 {
	u := make([]float64, len(s))
	for i := range u {
		u[i] = rng.Float64()
	}
	return u
}

// Result is a completed search.
type Result struct {
	Best    Point
	History []Point
}

// evalParallel scores every candidate on a bounded worker pool and
// returns the points in candidate order. workers < 2 runs inline.
func evalParallel(candidates []map[string]float64, obj objective, workers int) []Point {
	out := make([]Point, len(candidates))
	if workers > len(candidates) {
		workers = len(candidates)
	}
	if workers < 2 {
		for i, params := range candidates {
			score, err := obj(params)
			out[i] = Point{Params: params, Score: score, Err: err}
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				score, err := obj(candidates[i])
				out[i] = Point{Params: candidates[i], Score: score, Err: err}
			}
		}()
	}
	for i := range candidates {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// bayesOptConfig controls the GP-EI loop.
type bayesOptConfig struct {
	InitPoints  int     // random warm-up evaluations
	Iterations  int     // BO evaluations after warm-up
	Candidates  int     // EI candidates sampled per iteration
	LengthScale float64 // RBF length scale in unit space
	Noise       float64 // observation noise
	Seed        int64
	// Workers bounds concurrent objective evaluations during the random
	// warm-up (the iterations themselves are inherently sequential: each
	// acquisition conditions on every earlier score). <=1 runs serially;
	// results are identical either way for a deterministic objective
	// because warm-up candidates are drawn before any evaluation and
	// recorded in draw order.
	Workers int
}

// defaultBayesOptConfig returns sensible defaults for small budgets.
func defaultBayesOptConfig() bayesOptConfig {
	return bayesOptConfig{
		InitPoints: 4, Iterations: 12, Candidates: 256,
		LengthScale: 0.3, Noise: 1e-4, Seed: 1,
	}
}

// bayesOpt minimizes the objective with a GP surrogate and EI
// acquisition, picking at each step the candidate with the highest
// expected improvement (paper §7.2).
func bayesOpt(space space, obj objective, cfg bayesOptConfig) (Result, error) {
	if err := space.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.InitPoints < 2 {
		cfg.InitPoints = 2
	}
	if cfg.Candidates < 8 {
		cfg.Candidates = 8
	}
	if cfg.LengthScale <= 0 {
		cfg.LengthScale = 0.3
	}
	if cfg.Noise <= 0 {
		cfg.Noise = 1e-4
	}
	rng := stats.NewStream(cfg.Seed)
	res := Result{Best: Point{Score: math.Inf(1)}}
	var xs [][]float64
	var ys []float64

	record := func(unit []float64, pt Point) {
		res.History = append(res.History, pt)
		if pt.Err != nil {
			return
		}
		xs = append(xs, unit)
		ys = append(ys, pt.Score)
		if pt.Score < res.Best.Score {
			res.Best = pt
		}
	}
	eval := func(unit []float64) {
		params := space.concretize(unit)
		score, err := obj(params)
		record(unit, Point{Params: params, Score: score, Err: err})
	}

	// Warm-up: the candidates are independent, so draw them all first and
	// score on the bounded pool; record() keeps draw order so the GP sees
	// the exact same history a serial warm-up would produce.
	warm := make([]map[string]float64, cfg.InitPoints)
	units := make([][]float64, cfg.InitPoints)
	for i := range warm {
		units[i] = space.sampleUnit(rng)
		warm[i] = space.concretize(units[i])
	}
	for i, pt := range evalParallel(warm, obj, cfg.Workers) {
		record(units[i], pt)
	}
	for i := 0; i < cfg.Iterations; i++ {
		if len(xs) < 2 {
			eval(space.sampleUnit(rng))
			continue
		}
		g, err := newGP(xs, ys, cfg.LengthScale, cfg.Noise)
		if err != nil {
			// Degenerate surrogate (duplicate points): fall back to random.
			eval(space.sampleUnit(rng))
			continue
		}
		bestEI := math.Inf(-1)
		var bestCand []float64
		for c := 0; c < cfg.Candidates; c++ {
			cand := space.sampleUnit(rng)
			if ei := g.expectedImprovement(cand, res.Best.Score); ei > bestEI {
				bestEI = ei
				bestCand = cand
			}
		}
		eval(bestCand)
	}
	if math.IsInf(res.Best.Score, 1) {
		return res, fmt.Errorf("tuning: every evaluation failed")
	}
	return res, nil
}
