// Package tuning implements MimicNet's hyper-parameter tuning phase
// (paper §7.2): a search space over model hyper-parameters and Bayesian
// optimization with a Gaussian-process surrogate and expected-improvement
// acquisition after a random warm-up ("BO quickly converges
// on the optimal configuration"). Objectives are user-defined end-to-end
// metrics such as the Wasserstein distance of FCT distributions evaluated
// at multiple composition sizes.
package tuning

import (
	"fmt"
	"math"
)

// gp is a Gaussian process regressor with an RBF kernel over the unit
// hypercube, used as the surrogate model for Bayesian optimization.
type gp struct {
	x     [][]float64
	y     []float64
	ls    float64 // kernel length scale
	noise float64
	l     [][]float64 // Cholesky factor of K + noise*I
	alpha []float64   // K^-1 y
	meanY float64
}

func rbf(a, b []float64, ls float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * ls * ls))
}

// newGP fits the surrogate to observations (inputs scaled to [0,1]^d).
func newGP(x [][]float64, y []float64, ls, noise float64) (*gp, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("tuning: bad GP data: %d x, %d y", len(x), len(y))
	}
	g := &gp{x: x, ls: ls, noise: noise}
	// Center y for numerical sanity.
	for _, v := range y {
		g.meanY += v
	}
	g.meanY /= float64(n)
	g.y = make([]float64, n)
	for i, v := range y {
		g.y[i] = v - g.meanY
	}
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = rbf(x[i], x[j], ls)
		}
		k[i][i] += noise
	}
	l, err := cholesky(k)
	if err != nil {
		return nil, err
	}
	g.l = l
	g.alpha = choleskySolve(l, g.y)
	return g, nil
}

// predict returns the posterior mean and variance at point p.
func (g *gp) predict(p []float64) (mean, variance float64) {
	n := len(g.x)
	kstar := make([]float64, n)
	for i := range g.x {
		kstar[i] = rbf(p, g.x[i], g.ls)
	}
	for i := range kstar {
		mean += kstar[i] * g.alpha[i]
	}
	mean += g.meanY
	// v = L^-1 k*; var = k(p,p) - v'v
	v := forwardSolve(g.l, kstar)
	var vv float64
	for _, x := range v {
		vv += x * x
	}
	variance = 1 + g.noise - vv
	if variance < 1e-12 {
		variance = 1e-12
	}
	return mean, variance
}

// expectedImprovement computes EI for minimization given the best
// observed value.
func (g *gp) expectedImprovement(p []float64, best float64) float64 {
	mean, variance := g.predict(p)
	sd := math.Sqrt(variance)
	if sd < 1e-12 {
		return 0
	}
	z := (best - mean) / sd
	return (best-mean)*normCDF(z) + sd*normPDF(z)
}

func normPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// cholesky returns the lower-triangular factor of a symmetric
// positive-definite matrix.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("tuning: matrix not positive definite at %d (%v)", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// forwardSolve solves L v = b for lower-triangular L.
func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * v[k]
		}
		v[i] = sum / l[i][i]
	}
	return v
}

// backSolve solves L' x = v for lower-triangular L.
func backSolve(l [][]float64, v []float64) []float64 {
	n := len(v)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// choleskySolve solves (L L') x = b.
func choleskySolve(l [][]float64, b []float64) []float64 {
	return backSolve(l, forwardSolve(l, b))
}
