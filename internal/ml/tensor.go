// Package ml is a from-scratch neural network library sufficient for
// MimicNet's internal models: dense matrices, LSTM layers trained with
// backpropagation through time, linear heads, the paper's loss functions
// (MAE, MSE, Huber, BCE, weighted BCE), linear discretization, and the
// Adam optimizer. It replaces PyTorch/ATen in the original system; model
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

// newMatrix allocates a zero matrix with gradient storage.
func newMatrix(rows, cols int) *Matrix {
	return &Matrix{
		Rows: rows, Cols: cols,
		Data: make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
	}
}

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

// dot returns Σ a[i]*b[i], accumulated strictly in index order. Every
// matrix product in this package — the row kernel behind the batched
// inference step and the trainer's lane products, and the per-packet
// reference the tests keep — computes each element as this chain, which
// is what makes batched and per-packet inference agree bit-for-bit.
func dot(a, b []float64) float64 {
	return dotAcc(0, a, b)
}

// dotAcc returns acc + Σ a[i]*b[i], accumulated in index order starting
// from acc: the chain of a product continued from a starting value, as
// the GRU candidate's is from its input term and bias.
func dotAcc(acc float64, a, b []float64) float64 {
	for i, v := range a {
		acc += v * b[i]
	}
	return acc
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

// sigmoid is the logistic function.
func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// dSigmoid returns σ'(x) given y = σ(x).
func dSigmoid(y float64) float64 { return y * (1 - y) }

// dTanh returns tanh'(x) given y = tanh(x).
func dTanh(y float64) float64 { return 1 - y*y }

// clipGrads scales the combined gradient of params down to maxNorm if it
// exceeds it, the standard stabilizer for recurrent nets.
func clipGrads(params []*Matrix, maxNorm float64) float64 {
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
