package ml

// The row kernel: the one accumulation kernel behind the batched
// products (DESIGN.md decisions 18-20). Inference rounds are narrow: at
// N=32 (warm_n32's size) a round steps 13.3 lanes on average in one lane
// group and 7.4 in each of two (decision 29), so it vectorizes across
// output rows, not lanes, and a step costs the same at any round width.
// The minibatch trainer's forward is the banks' own cell step, over its
// weights packed once per minibatch; its two backward products
// (batch.go) are the same column-by-column accumulation over views that
// need no packing. Those backward products write 23 or 24 outputs (a
// weight-gradient row is In or H wide; Whᵀ·dz has H rows), which the
// kernel's tail takes in one walk of the terms with every row in its
// own accumulator, so no narrow block is left bound by a single add
// chain.
//
// Exactness. Each output element is the same ascending-k chain of
// multiply-then-add as dot, just advanced for all rows at once: for
// every k, out[r] += W[r][k]·x[k]. Both walks skip the k whose x[k] is
// an exact zero. Skipping is bitwise exact from any start that is not
// -0 because such an accumulator never becomes -0 (+0 + -0 = +0, and
// an exact cancellation rounds to +0), so adding a finite w·±0 = ±0
// never changes it — which is why an artifact with a non-finite weight
// is refused before it reaches inference (Model.CheckFinite): Inf·0 is
// NaN, not a no-op. Every walk starts from +0 or accumulates onto a
// gradient summed from +0, so each is dot's or dotAcc's chain bit for
// bit. There are two walks, one per kind of input:
//
//   - mulLane lists the non-zero columns into its caller's scratch, then
//     walks the list: the sparse inputs x (one-hot feature blocks) and
//     the MLP's window of them. On inputs whose zero pattern changes
//     from call to call, as real packets' do, the list walk is 2.4-4.7
//     times faster than accStrided's (BenchmarkInputWalk; DESIGN.md
//     decision 38): the list is built once per product, while the
//     strided walk branches on every column in every 16-row pass and
//     mispredicts.
//   - accStrided walks every column of an input read with a stride and
//     passes each exact zero by with one test: the dense inputs, where
//     zeros are rare and a list would cost more than it saves — the
//     recurrent state h in every cell step (W·hPrev), the gate
//     gradients dz a lane at a time (Mᵀ·dy) and one gate row across the
//     lanes (the weight gradient). On dense inputs it is no slower than
//     a walk taking every term, so no third walk is kept (DESIGN.md
//     decision 39). Its skip set is MulVecT's and AddOuterGrad's, so the
//     trainer's backward products are theirs for every weight, finite
//     or not.

// packedRows is a matrix stored k-major for the row kernel:
// t[k*rows + r] = W[r][k], so column k of W is one contiguous run. A
// batch state packs its cell's weights once, when the bank is built
// (packing lifetime: a bank's trunk runs on the weights its model had
// then, so a model trained further needs a new bank); a trainer layer
// repacks its batch state's at the start of every minibatch.
type packedRows struct {
	rows int
	t    []float64
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
}

// mulLane sets out[i] = dot(W.row(i), x) for i in [0, len(out)),
// bitwise, skipping exact-zero inputs. idx is scratch for the column
// list, at least len(x) long.
func (p *packedRows) mulLane(x, out []float64, idx []int) {
	zeroRange(out)
	if len(out) == 0 {
		return
	}
	idx = idx[:len(x)]
	nnz := 0
	for k, v := range x {
		idx[nnz] = k
		if v != 0 {
			nnz++
		}
	}
	if nnz > 0 {
		p.accCols(x, idx[:nnz], out)
	}
}

// accCols is mulLane's walk: it adds x[k]·column k onto out for each k
// of the non-empty, ascending list cols, in order. With useRowsAcc the
// list goes to rowsAcc; otherwise a Go loop does the same elementwise
// updates. (Folded into mulLane, the pair measured 7-9% slower per
// lane step: DESIGN.md decision 39.)
func (p *packedRows) accCols(x []float64, cols []int, out []float64) {
	R, n, last := p.rows, len(out), cols[len(cols)-1]
	_ = x[last]
	_ = p.t[last*R+n-1] // the last element rowsAcc may read
	if useRowsAcc {
		rowsAcc(&out[0], n, &p.t[0], R*8, &x[0], &cols[0], len(cols))
		return
	}
	for _, k := range cols {
		v := x[k]
		col := p.t[k*R : k*R+n]
		o := out[:len(col)]
		for i, w := range col {
			o[i] += w * v
		}
	}
}

// accStrided adds v·W[i][k] onto out[i] for k = 0, 1, …, n-1 in turn,
// with v = x[k*xStride], passing by each k whose v is an exact zero.
// With useRowsAcc rowsAccStrided walks the columns; otherwise a Go loop
// does the same elementwise updates.
func (p *packedRows) accStrided(x []float64, xStride, n int, out []float64) {
	R, rows := p.rows, len(out)
	if rows == 0 || n == 0 {
		return
	}
	_ = x[(n-1)*xStride]
	_ = p.t[(n-1)*R+rows-1] // the last element rowsAccStrided may read
	if useRowsAcc {
		rowsAccStrided(&out[0], rows, &p.t[0], R*8, &x[0], xStride*8, n)
		return
	}
	for k := 0; k < n; k++ {
		v := x[k*xStride]
		if v == 0 {
			continue
		}
		col := p.t[k*R : k*R+rows]
		o := out[:len(col)]
		for i, w := range col {
			o[i] += w * v
		}
	}
}
