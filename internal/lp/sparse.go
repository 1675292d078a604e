package lp

// sparseCols stores the structural and slack/surplus part of the
// constraint matrix in compressed sparse column (CSC) form. Core's
// builders of program (7), one set for one or several applications per
// origin, emit sparse []Term rows; this keeps that sparsity so the
// revised simplex can price a column in O(nnz(col)) instead of O(m).
type sparseCols struct {
	n      int
	colPtr []int32
	rowIdx []int32
	val    []float64
}

// newSparseCols builds the CSC matrix of a Problem: columns
// 0..nvars-1 are the structural variables, followed by one
// slack/surplus column per inequality row (+1 for LE, -1 for GE).
// Duplicate terms within a row are summed, matching the dense
// tableau's densification.
func newSparseCols(p *Problem) (sp sparseCols, slackOfRow []int, slackCoef []float64) {
	m := len(p.rows)
	nslack := 0
	for _, r := range p.rows {
		if r.rel != EQ {
			nslack++
		}
	}
	n := p.nvars + nslack
	sp = sparseCols{n: n}

	// Collect entries per column, summing duplicate terms within a
	// row exactly as the dense tableau's densification does.
	type entry struct {
		row int32
		val float64
	}
	cols := make([][]entry, n)
	merge := make(map[int]float64)
	for i, r := range p.rows {
		clear(merge)
		for _, t := range r.terms {
			merge[t.Var] += t.Coeff
		}
		for v, c := range merge {
			if c != 0 {
				cols[v] = append(cols[v], entry{int32(i), c})
			}
		}
	}
	slackOfRow = make([]int, m)
	slackCoef = make([]float64, nslack)
	at := p.nvars
	for i, r := range p.rows {
		slackOfRow[i] = -1
		switch r.rel {
		case LE:
			cols[at] = append(cols[at], entry{int32(i), 1})
			slackOfRow[i] = at
			slackCoef[at-p.nvars] = 1
			at++
		case GE:
			cols[at] = append(cols[at], entry{int32(i), -1})
			slackOfRow[i] = at
			slackCoef[at-p.nvars] = -1
			at++
		}
	}

	nnz := 0
	for _, c := range cols {
		nnz += len(c)
	}
	sp.colPtr = make([]int32, n+1)
	sp.rowIdx = make([]int32, 0, nnz)
	sp.val = make([]float64, 0, nnz)
	for j, c := range cols {
		sp.colPtr[j] = int32(len(sp.rowIdx))
		for _, e := range c {
			sp.rowIdx = append(sp.rowIdx, e.row)
			sp.val = append(sp.val, e.val)
		}
	}
	sp.colPtr[n] = int32(len(sp.rowIdx))
	return sp, slackOfRow, slackCoef
}

// dot returns y·A_j for a dense vector y of length m.
func (sp *sparseCols) dot(y []float64, j int) float64 {
	s := 0.0
	for t := sp.colPtr[j]; t < sp.colPtr[j+1]; t++ {
		s += y[sp.rowIdx[t]] * sp.val[t]
	}
	return s
}
