package ml

import (
	"fmt"
	"math"
)

// adam implements the Adam optimizer (Kingma & Ba), the de facto default
// for LSTM training.
type adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	t            int
	m, v         map[*Matrix][]float64
}

// newAdam returns Adam with standard hyper-parameters.
func newAdam(lr float64) *adam {
	return &adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Matrix][]float64),
		v: make(map[*Matrix][]float64),
	}
}

// AdamState is the serializable optimizer trajectory: the step counter
// plus first/second moment estimates in parameter order. Adam's update
// depends on all three, so resuming training without them would diverge
// from the uninterrupted run at the first post-resume step.
type AdamState struct {
	T int         `json:"t"`
	M [][]float64 `json:"m"` // indexed like the params slice
	V [][]float64 `json:"v"`
}

// State deep-copies the optimizer's moments for the given parameters
// (in order). Parameters the optimizer has not touched yet snapshot as
// zero moments — exactly what lazy allocation would produce.
func (o *adam) State(params []*Matrix) AdamState {
	st := AdamState{T: o.t, M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	for i, p := range params {
		st.M[i] = append([]float64(nil), o.m[p]...)
		st.V[i] = append([]float64(nil), o.v[p]...)
		if st.M[i] == nil {
			st.M[i] = make([]float64, len(p.Data))
			st.V[i] = make([]float64, len(p.Data))
		}
	}
	return st
}

// SetState restores a snapshot taken by State over the same parameter
// list. The slices are copied in, so the checkpoint stays immutable.
func (o *adam) SetState(params []*Matrix, st AdamState) error {
	if err := st.validate(params); err != nil {
		return err
	}
	o.t = st.T
	for i, p := range params {
		o.m[p] = append([]float64(nil), st.M[i]...)
		o.v[p] = append([]float64(nil), st.V[i]...)
	}
	return nil
}

func (st AdamState) validate(params []*Matrix) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("ml: adam state covers %d/%d tensors, model has %d",
			len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.Data) || len(st.V[i]) != len(p.Data) {
			return fmt.Errorf("ml: adam state tensor %d sized %d/%d, model wants %d",
				i, len(st.M[i]), len(st.V[i]), len(p.Data))
		}
	}
	if st.T < 0 {
		return fmt.Errorf("ml: adam state has negative step counter %d", st.T)
	}
	return nil
}

// Step applies one update and zeroes gradients.
func (o *adam) Step(params []*Matrix) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = make([]float64, len(p.Data))
			v = make([]float64, len(p.Data))
			o.m[p] = m
			o.v[p] = v
		}
		for i := range p.Data {
			g := p.Grad[i]
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Data[i] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
			p.Grad[i] = 0
		}
	}
}
