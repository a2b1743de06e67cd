// Package ml is a from-scratch neural network library sufficient for
// MimicNet's internal models: dense matrices, LSTM layers trained with
// backpropagation through time, linear heads, the paper's loss functions
// (MAE, MSE, Huber, BCE, weighted BCE), linear discretization, and Adam /
// SGD optimizers. It replaces PyTorch/ATen in the original system; model
// inference is a plain Go function call embedded in the simulator's event
// loop (paper §8).
package ml

import (
	"encoding/json"
	"fmt"
	"math"

	"mimicnet/internal/stats"
)

// Matrix is a dense row-major matrix with a gradient buffer. It doubles
// as a trainable parameter: optimizers walk (Data, Grad) pairs.
type Matrix struct {
	Rows, Cols int
	Data       []float64
	Grad       []float64
}

// NewMatrix allocates a zero matrix with gradient storage.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{
		Rows: rows, Cols: cols,
		Data: make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
	}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// ZeroGrad clears the gradient buffer.
func (m *Matrix) ZeroGrad() {
	for i := range m.Grad {
		m.Grad[i] = 0
	}
}

// InitXavier fills the matrix with Xavier/Glorot-uniform values, the
// standard initialization for tanh/sigmoid recurrent nets.
func (m *Matrix) InitXavier(s *stats.Stream) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (2*s.Float64() - 1) * limit
	}
}

// MulVec computes out = M * x (out len Rows, x len Cols). out may be nil.
func (m *Matrix) MulVec(x, out []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("ml: MulVec dim mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	if out == nil {
		out = make([]float64, m.Rows)
	}
	for r := 0; r < m.Rows; r++ {
		out[r] = Dot(m.Data[r*m.Cols:(r+1)*m.Cols], x)
	}
	return out
}

// Dot returns Σ a[i]*b[i], accumulated strictly in index order. Every
// matrix product in this package — per-vector (MulVec), the trainer's
// lane GEMM (MulLanes) and inference's row kernel — computes each
// element as this chain, which is what makes batched and per-packet
// inference agree bit-for-bit.
func Dot(a, b []float64) float64 {
	return DotAcc(0, a, b)
}

// DotAcc returns acc + Σ a[i]*b[i], accumulated in index order starting
// from acc. It mirrors the hand-written `sum := init; sum += v*b[i]`
// loops in the recurrent cells, so refactoring them onto this kernel
// changes no results.
func DotAcc(acc float64, a, b []float64) float64 {
	for i, v := range a {
		acc += v * b[i]
	}
	return acc
}

// AddOuterGrad accumulates the outer product dy ⊗ x into the gradient:
// Grad[r][c] += dy[r] * x[c]. This is the weight gradient of y = Mx.
func (m *Matrix) AddOuterGrad(dy, x []float64) {
	for r := 0; r < m.Rows; r++ {
		g := m.Grad[r*m.Cols : (r+1)*m.Cols]
		d := dy[r]
		if d == 0 {
			continue
		}
		for c := range g {
			g[c] += d * x[c]
		}
	}
}

// MulVecT computes out += Mᵀ * dy (backprop of y = Mx into x).
func (m *Matrix) MulVecT(dy, out []float64) {
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		d := dy[r]
		if d == 0 {
			continue
		}
		for c, v := range row {
			out[c] += v * d
		}
	}
}

// matrixJSON is the serialization form of a Matrix.
type matrixJSON struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// MarshalJSON serializes the matrix (weights only, not gradients).
func (m *Matrix) MarshalJSON() ([]byte, error) {
	return json.Marshal(matrixJSON{m.Rows, m.Cols, m.Data})
}

// UnmarshalJSON restores a serialized matrix.
func (m *Matrix) UnmarshalJSON(b []byte) error {
	var mj matrixJSON
	if err := json.Unmarshal(b, &mj); err != nil {
		return err
	}
	if len(mj.Data) != mj.Rows*mj.Cols {
		return fmt.Errorf("ml: matrix data length %d != %dx%d", len(mj.Data), mj.Rows, mj.Cols)
	}
	m.Rows, m.Cols, m.Data = mj.Rows, mj.Cols, mj.Data
	m.Grad = make([]float64, len(mj.Data))
	return nil
}

// Vector helpers.

// Zeros returns a zero vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// AddTo accumulates src into dst.
func AddTo(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// DSigmoid returns σ'(x) given y = σ(x).
func DSigmoid(y float64) float64 { return y * (1 - y) }

// DTanh returns tanh'(x) given y = tanh(x).
func DTanh(y float64) float64 { return 1 - y*y }

// ClipGrads scales the combined gradient of params down to maxNorm if it
// exceeds it, the standard stabilizer for recurrent nets.
func ClipGrads(params []*Matrix, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	return norm
}
