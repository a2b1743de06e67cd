package ml

import "math"

// This file implements MimicNet's DCN-friendly loss functions (paper
// §5.4): weighted binary cross-entropy for rare events like drops, and
// the Huber loss for heavy-tailed latency distributions, plus the plain
// MAE/MSE/BCE used as ablation baselines (Figures 5 and 6).

// clampProb keeps probabilities away from 0/1 so logs stay finite.
func clampProb(p float64) float64 {
	const eps = 1e-7
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// bce returns the binary cross-entropy loss and its derivative with
// respect to the predicted probability. y is the 0/1 target.
func bce(pred, y float64) (loss, dPred float64) {
	p := clampProb(pred)
	loss = -y*math.Log(p) - (1-y)*math.Log(1-p)
	dPred = (p - y) / (p * (1 - p))
	return loss, dPred
}

// wbce is MimicNet's weighted BCE: w scales the positive (drop) class,
// (1-w) the negative. w in 0.6–0.8 is the paper's recommended range.
func wbce(pred, y, w float64) (loss, dPred float64) {
	p := clampProb(pred)
	loss = -w*y*math.Log(p) - (1-w)*(1-y)*math.Log(1-p)
	dPred = -w*y/p + (1-w)*(1-y)/(1-p)
	return loss, dPred
}

// mae returns the absolute error and its derivative.
func mae(pred, y float64) (loss, dPred float64) {
	d := pred - y
	if d >= 0 {
		return d, 1
	}
	return -d, -1
}

// mse returns the squared error and its derivative.
func mse(pred, y float64) (loss, dPred float64) {
	d := pred - y
	return d * d, 2 * d
}

// huber returns the Huber loss with threshold delta and its derivative:
// quadratic within delta, linear outside (paper Eq. in §5.4).
func huber(pred, y, delta float64) (loss, dPred float64) {
	d := pred - y
	ad := math.Abs(d)
	if ad <= delta {
		return 0.5 * d * d, d
	}
	if d > 0 {
		return delta*ad - 0.5*delta*delta, delta
	}
	return delta*ad - 0.5*delta*delta, -delta
}

// RegressionLoss selects among the latency loss functions.
type RegressionLoss int

// Supported regression losses.
const (
	LossHuber RegressionLoss = iota
	LossMAE
	LossMSE
)

// String names the loss.
func (l RegressionLoss) String() string {
	switch l {
	case LossHuber:
		return "huber"
	case LossMAE:
		return "mae"
	case LossMSE:
		return "mse"
	}
	return "unknown"
}

// Eval applies the selected loss.
func (l RegressionLoss) Eval(pred, y, delta float64) (loss, dPred float64) {
	switch l {
	case LossMAE:
		return mae(pred, y)
	case LossMSE:
		return mse(pred, y)
	default:
		return huber(pred, y, delta)
	}
}

// Discretizer implements the paper's linear quantization of continuous
// values (latency and time features): f(y) = floor((y-lo)/(hi-lo) * D).
// Training targets use the bin midpoint normalized to [0,1]; Recover maps
// predictions back to the value domain.
type Discretizer struct {
	Lo, Hi float64
	D      int // number of bins; <=1 disables quantization
}

// Quantize returns the bin index of v, clamped to [0, D-1].
func (d Discretizer) Quantize(v float64) int {
	if d.D <= 1 || d.Hi <= d.Lo {
		return 0
	}
	idx := int((v - d.Lo) / (d.Hi - d.Lo) * float64(d.D))
	if idx < 0 {
		idx = 0
	}
	if idx >= d.D {
		idx = d.D - 1
	}
	return idx
}

// Normalize maps v to [0,1], optionally snapping to bin midpoints.
func (d Discretizer) Normalize(v float64) float64 {
	if d.Hi <= d.Lo {
		return 0
	}
	if d.D > 1 {
		bin := d.Quantize(v)
		return (float64(bin) + 0.5) / float64(d.D)
	}
	x := (v - d.Lo) / (d.Hi - d.Lo)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return x
}

// Recover maps a normalized prediction back to the value domain.
func (d Discretizer) Recover(norm float64) float64 {
	if norm < 0 {
		norm = 0
	}
	if norm > 1 {
		norm = 1
	}
	if d.D > 1 {
		bin := int(norm * float64(d.D))
		if bin >= d.D {
			bin = d.D - 1
		}
		return d.Lo + (float64(bin)+0.5)/float64(d.D)*(d.Hi-d.Lo)
	}
	return d.Lo + norm*(d.Hi-d.Lo)
}
