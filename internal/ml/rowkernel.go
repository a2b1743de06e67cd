package ml

// The row kernel: the one accumulation kernel behind the batched
// products (DESIGN.md decisions 18-20). Inference rounds are narrow: at
// N=32 (warm_n32's size) a round steps 13.3 lanes on average in one lane
// group and 7.4 in each of two (decision 29), so it vectorizes across
// output rows, not lanes, and a step costs the same at any round width.
// The minibatch trainer's three products (batch.go) are the same
// column-by-column accumulation: the forward product over its weights
// packed once per minibatch, the two backward products over views that
// need no packing. Those backward products write 23 or 24 outputs (a
// weight-gradient row is In or H wide; Whᵀ·dz has H rows), which
// rowsAcc's tail takes in one walk of the term list with every row in
// its own accumulator, so no narrow block is left bound by a single add
// chain.
//
// Exactness. Each output element is the same ascending-k chain of
// multiply-then-add as dot, just advanced for all rows at once: for
// every k, out[r] += W[r][k]·x[k]. mulLane skips the k whose x[k] is an
// exact zero (one-hot feature blocks, zero initial state). That is
// bitwise exact because the accumulator starts at +0 and never becomes
// -0 (+0 + -0 = +0), so adding a finite w·±0 = ±0 never changes it —
// which is why an artifact with a non-finite weight is refused before
// it reaches inference (Model.CheckFinite): Inf·0 is NaN, not a no-op.
// mulDense (DESIGN.md decision 35) takes every term, as dot does, for
// the lane banks' recurrent products W·hPrev: hPrev is dense (exactly
// zero only on a fresh lane), so building mulLane's skip list per column
// is waste — a 96×24 product cost 400–420 ns through mulLane against
// 264 ns for rowsAcc alone. By the argument above the two are bitwise
// equal on finite weights, and on any other weights mulDense is still
// dot's chain. The trainer's Mᵀ·dy keeps mulLane's skip set: it is
// MulVecT's, and the trainer's weights are not checked. accLane
// continues a chain from a caller's starting value, which may be -0, so
// it takes every term.

// packedRows is a matrix stored k-major for the row kernel:
// t[k*rows + r] = W[r][k], so column k of W is one contiguous run. A
// batch state packs its cell's weights once, when the bank is built
// (packing lifetime: a bank's trunk runs on the weights its model had
// then, so a model trained further needs a new bank); a trainer layer
// repacks at the start of every minibatch.
type packedRows struct {
	rows int
	t    []float64
	all  []int // 0, 1, …, Cols-1: the column list of a dense product
}

func packRows(m *Matrix) packedRows {
	var p packedRows
	p.pack(m)
	return p
}

// pack (re)fills p from m, reusing p's buffers when they are big enough.
func (p *packedRows) pack(m *Matrix) {
	p.rows = m.Rows
	p.t = growFloats(p.t, m.Rows*m.Cols)
	for r := 0; r < m.Rows; r++ {
		for k, v := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			p.t[k*m.Rows+r] = v
		}
	}
	if len(p.all) != m.Cols {
		p.all = make([]int, m.Cols)
		for k := range p.all {
			p.all[k] = k
		}
	}
}

// mulLane sets out[i] = dot(W.row(r0+i), x) for i in [0, len(out)),
// bitwise, skipping exact-zero inputs.
func (p *packedRows) mulLane(r0 int, x, out []float64) {
	zeroRange(out)
	p.accumulate(r0, x, out, true)
}

// mulDense sets out[i] = dot(W.row(r0+i), x) for i in [0, len(out))
// taking every term, as dot does: the product of a bank's dense
// recurrent state, where mulLane's zero-skip list is pure overhead.
func (p *packedRows) mulDense(r0 int, x, out []float64) {
	zeroRange(out)
	p.accumulate(r0, x, out, false)
}

// accLane sets out[i] = dotAcc(out[i], W.row(r0+i), x) for i in
// [0, len(out)), bitwise. No term is skipped: out[i] may start at -0.
func (p *packedRows) accLane(r0 int, x, out []float64) {
	p.accumulate(r0, x, out, false)
}

// accumulate adds x[k]·column k onto out for ascending k: every k for
// accLane and mulDense, the non-zero ones — gathered without a branch
// per column — for mulLane.
func (p *packedRows) accumulate(r0 int, x, out []float64, skipZeros bool) {
	if len(out) == 0 || len(x) == 0 {
		return
	}
	if !skipZeros {
		p.accCols(r0, x, p.all[:len(x)], out)
		return
	}
	var idx [64]int
	for k0 := 0; k0 < len(x); k0 += len(idx) {
		nnz := 0
		for k := k0; k < min(k0+len(idx), len(x)); k++ {
			idx[nnz] = k
			if x[k] != 0 {
				nnz++
			}
		}
		if nnz > 0 {
			p.accCols(r0, x, idx[:nnz], out)
		}
	}
}

// accCols adds x[k]·column k onto out for each k of the non-empty,
// ascending list cols, in order. With useRowsAcc the list goes to
// rowsAcc; otherwise a Go loop does the same elementwise updates.
func (p *packedRows) accCols(r0 int, x []float64, cols []int, out []float64) {
	R, n, last := p.rows, len(out), cols[len(cols)-1]
	_ = x[last]
	_ = p.t[last*R+r0+n-1] // the last element rowsAcc may read
	if useRowsAcc {
		rowsAcc(&out[0], n, &p.t[r0], R*8, &x[0], &cols[0], len(cols))
		return
	}
	for _, k := range cols {
		v := x[k]
		col := p.t[k*R+r0 : k*R+r0+n]
		o := out[:len(col)]
		for i, w := range col {
			o[i] += w * v
		}
	}
}
