package ml

import "mimicnet/internal/stats"

// Linear is a fully connected layer y = Wx + b.
type Linear struct {
	W *Matrix
	B *Matrix // (out, 1), stored as a matrix so optimizers see one type
}

// NewLinear allocates and initializes a linear layer.
func NewLinear(in, out int, s *stats.Stream) *Linear {
	l := &Linear{W: NewMatrix(out, in), B: NewMatrix(out, 1)}
	l.W.InitXavier(s)
	return l
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Matrix { return []*Matrix{l.W, l.B} }

// LSTM is a single long short-term memory layer. Gate layout within the
// stacked 4H dimension is [input, forget, candidate, output].
type LSTM struct {
	In, Hidden int
	Wx         *Matrix // (4H, In)
	Wh         *Matrix // (4H, H)
	B          *Matrix // (4H, 1)
}

// NewLSTM allocates and initializes an LSTM layer. The forget gate bias
// starts at 1 (the classic trick so memory persists early in training).
func NewLSTM(in, hidden int, s *stats.Stream) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx: NewMatrix(4*hidden, in),
		Wh: NewMatrix(4*hidden, hidden),
		B:  NewMatrix(4*hidden, 1),
	}
	l.Wx.InitXavier(s)
	l.Wh.InitXavier(s)
	for i := hidden; i < 2*hidden; i++ {
		l.B.Data[i] = 1
	}
	return l
}

// Params returns the layer's trainable parameters.
func (l *LSTM) Params() []*Matrix { return []*Matrix{l.Wx, l.Wh, l.B} }
