package lp

import (
	"math"
	"time"
)

// This file holds the ratio tests of the Revised split: the two-sided
// primal test, the bound-flipping (long-step) dual test with its lazy
// breakpoint heap, and the aggregated bound-flip application.

// primalRatioTest picks the leaving row for the entering direction
// that direction left in r.d, traveled in direction dir, or -1 when no
// basic column blocks (the entering column is then limited only by its
// own opposite bound, or unbounded). It walks d's list: a row with
// d_i = 0 neither blocks nor ejects an artificial. The test is
// two-sided: a basic column blocks when it hits its lower bound
// (delta > 0) or its finite upper bound (delta < 0); the returned flag
// records which. Ties break toward
// the smallest basic column (Bland-compatible). Zero-valued basic
// artificials with a usable nonzero component are forced out first
// so they can never turn positive again during phase 2; "usable"
// requires the implied entering value |xb/d| to be negligible, so a
// near-eps pivot under a small positive residue can never catapult
// the entering variable to a macroscopic out-of-box value.
func (r *Revised) primalRatioTest(dir float64) (leave int, atUpper bool, t float64) {
	d, ftol := r.d, r.feasTol()
	best := -1
	bestUpper := false
	bestRatio := math.Inf(1)
	for _, i32 := range r.dIdx {
		i := int(i32)
		if r.basis[i] >= r.artStart && r.xb[i] <= ftol && math.Abs(d[i]) > eps &&
			math.Abs(r.xb[i]) <= math.Abs(d[i])*ftol {
			return i, false, 0 // degenerate pivot: eject the artificial now
		}
		delta := dir * d[i]
		var ratio float64
		var hitsUpper bool
		switch {
		case delta > eps:
			ratio = r.xb[i] / delta
			if ratio < 0 {
				ratio = 0
			}
		case delta < -eps:
			u := r.U[r.basis[i]]
			if math.IsInf(u, 1) {
				continue
			}
			ratio = (u - r.xb[i]) / -delta
			if ratio < 0 {
				ratio = 0
			}
			hitsUpper = true
		default:
			continue
		}
		if ratio < bestRatio-eps || (ratio < bestRatio+eps && (best == -1 || r.basis[i] < r.basis[best])) {
			bestRatio = ratio
			best = i
			bestUpper = hitsUpper
		}
	}
	return best, bestUpper, bestRatio
}

// dualEnterFlips is the bound-flipping (long-step) dual ratio test
// over the breakpoints the pricing pass collected into the dc*
// buffers. Walking the breakpoints in ratio order, a boxed candidate
// whose breakpoint is passed need not enter: flipping it to its
// opposite bound moves the leaving row's value by |α_j|·U_j toward
// feasibility and keeps the dual objective's ascent going with a
// smaller slope. The walk flips candidates while the leaving row
// still violates by more than the feasibility tolerance and enters
// at the first breakpoint that would restore it (taking, Harris style,
// the largest |α| within dual tolerance of that breakpoint's ratio);
// all accumulated flips are applied with one aggregated FTRAN. When
// every breakpoint is a finite flip and flipping them all still
// leaves the row violating, the dual is unbounded along this row —
// the primal is infeasible — and enter = -1 is returned with no flip
// applied. One long step therefore traverses what devex-era pivots
// crossed one degenerate mini-step at a time.
func (r *Revised) dualEnterFlips(nc int, viol, dtol float64) (enter int) {
	cJ, cAlpha, cRatio := r.dcJ, r.dcAlpha, r.dcRatio
	// The walk consumes breakpoints in ascending ratio order but
	// typically stops after a handful, so a lazy min-heap (O(nc)
	// heapify + O(log nc) per consumed breakpoint) replaces a full
	// O(nc log nc) sort — on degenerate instances this ratio test runs
	// every dual pivot and the sort dominated the pivot's profile.
	heap := r.bfOrder[:0]
	for t := 0; t < nc; t++ {
		heap = append(heap, int32(t))
	}
	r.bfOrder = heap
	for root := nc/2 - 1; root >= 0; root-- {
		siftDownIdxMin(heap, cRatio, root, nc)
	}
	ftol := r.feasTol()
	slope := viol
	// Flipped candidates collect at the tail of the buffer, in the
	// slots the shrinking heap frees; heap[:n] stays the unflipped set.
	n := nc
	stop := int32(-1)
	for n > 0 {
		t := heap[0]
		u := r.U[cJ[t]]
		if math.IsInf(u, 1) || slope-cAlpha[t]*u <= ftol {
			stop = t
			break
		}
		slope -= cAlpha[t] * u
		n--
		heap[0] = heap[n]
		heap[n] = t
		siftDownIdxMin(heap, cRatio, 0, n)
	}
	if stop < 0 {
		return -1
	}
	stopRatio := cRatio[stop]
	bestA := 0.0
	pick := stop
	// Harris tie group: largest |α| among the unflipped candidates
	// within dual tolerance of the stop ratio. The (α, j) comparison is
	// a total order, so scanning the heap array unsorted picks the same
	// winner the sorted suffix scan did.
	for _, t := range heap[:n] {
		if cRatio[t] > stopRatio+dtol/cAlpha[t] {
			continue
		}
		if cAlpha[t] > bestA || (cAlpha[t] == bestA && cJ[t] < cJ[pick]) {
			bestA = cAlpha[t]
			pick = t
		}
	}
	if n < nc {
		r.applyBoundFlips(heap[n:])
	}
	return int(cJ[pick])
}

// applyBoundFlips flips each breakpoint candidate in idxs (indices
// into the dc* buffers) across its box and applies their aggregate
// effect on the basic values with a single sparse FTRAN:
// xb -= B⁻¹·Σ_j ±U_j·A_j. The sum is added straight into the solve's
// right-hand side, column by column in idxs' order, and the result lands
// in d and its list — free until the entering column's direction, which
// the dual solves next, overwrites them.
func (r *Revised) applyBoundFlips(idxs []int32) {
	for _, t := range idxs {
		j := int(r.dcJ[t])
		du := r.U[j]
		if r.atUpper[j] {
			du = -du
		}
		r.atUpper[j] = !r.atUpper[j]
		r.movedCols.note(j, r.ncols)
		r.effCol(j, func(i int, v float64) {
			r.fac.add(i, v*du)
		})
		r.stats.BoundFlips++
	}
	t0 := time.Now()
	r.dIdx = r.fac.solve(r.d, r.dIdx)
	r.stats.Phase.FTRANNanos += int64(time.Since(t0))
	ftol := r.feasTol()
	for _, i := range r.dIdx {
		r.xb[i] -= r.d[i]
		r.clampXB(int(i), ftol)
	}
}

// siftDownIdxMin restores the min-heap property (keyed ascending by
// key[idx[t]]) on idx[:n] from root down, without allocating
// (sort.Slice's closure would defeat the zero-allocation warm
// what-if path).
func siftDownIdxMin(idx []int32, key []float64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && key[idx[child+1]] < key[idx[child]] {
			child++
		}
		if key[idx[root]] <= key[idx[child]] {
			return
		}
		idx[root], idx[child] = idx[child], idx[root]
		root = child
	}
}
