package heuristics

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/platform"
)

// snapEps absorbs LP roundoff before flooring, so a β̃ of 2.9999999995
// rounds down to 3, not 2.
const snapEps = 1e-7

// LPR is the paper's round-off heuristic (§5.2.1) applied to rel, a
// relaxed optimum of pr (Relax, or a core.Model's Solution): floor
// every β̃_{k,l} to an integer, and shrink each α̃_{k,l} to fit the
// rounded connection count:
//
//	β̂_{k,l} = ⌊β̃_{k,l}⌋
//	α̂_{k,l} = min(α̃_{k,l}, β̂_{k,l}·min bw(L_{k,l}))
//
// Routes whose path crosses no backbone link keep their α unchanged
// (no connection constraint applies there). LPR solves nothing: the
// paper charges it, like LPRG, the one relaxation its caller holds
// (DESIGN.md "Heuristics (§5)").
func LPR(pr *core.Problem, rel *core.RelaxedSolution) *core.Allocation {
	alloc, _ := roundDown(pr, rel.Alpha)
	return alloc
}

// Relaxation is the one root solve: program (7)'s relaxation on a
// core.Model, whose optimum (RelaxedSolution, its value the LP bound)
// every heuristic starts from. LPR and LPRG round it; LPRR and
// branch-and-bound pin β on the model from it and its basis.
type Relaxation struct {
	*core.RelaxedSolution
	Root  *lp.Basis // the optimum's basis, which a session carries to its next commit
	model *core.Model
	held  bool // the caller holds model at this root: Run rewinds a pin to it
}

// Relax builds pr's core.Model under obj and cold-solves it, as a
// session's create does, so every heuristic rounds the vertex the
// service rounds. The model is Relax's own, held at the root.
func Relax(pr *core.Problem, obj core.Objective) (*Relaxation, error) {
	model, err := pr.NewModel(obj)
	if err != nil {
		return nil, err
	}
	r, err := RelaxOn(model, nil)
	if r != nil {
		r.held = true
	}
	return r, err
}

// RelaxOn clears model's β bounds and solves its relaxation warm from
// `from` (cold when nil), as a session's commit does. It is small
// enough to inline, so a caller that keeps no Relaxation past its
// heuristic holds it on its stack.
func RelaxOn(model *core.Model, from *lp.Basis) (*Relaxation, error) {
	r := new(Relaxation)
	if err := r.solve(model, from); err != nil {
		return nil, err
	}
	return r, nil
}

// Hold says the caller holds r's model at this root, as a commit does,
// so Run rewinds it here after a pin, and returns r.
func (r *Relaxation) Hold() *Relaxation {
	r.held = true
	return r
}

// solve is the root solve of model: it resets model's β bounds and
// solves the unpinned relaxation warm from `from` (cold when nil), and r
// keeps the model, the optimum and its basis. The all-zero allocation is
// always feasible, so an infeasible verdict is a model bug,
// errInfeasible, not an answer.
func (r *Relaxation) solve(model *core.Model, from *lp.Basis) error {
	model.ResetBounds()
	if _, ok, err := model.Solve(from); err != nil {
		return err
	} else if !ok {
		return errInfeasible
	}
	r.model, r.Root, r.RelaxedSolution = model, model.Basis(), model.Solution()
	return nil
}

var errInfeasible = errors.New("heuristics: relaxation infeasible on an unconstrained platform (model bug)")

// roundDown applies the LPR rounding to a relaxed optimum's α, taking
// β̃ = α̃/bw_min — the least connection count that carries α̃, whichever
// encoding produced it — and also returns the residual platform
// capacity left over (consumed by the greedy refinement of LPRG).
func roundDown(pr *core.Problem, alpha [][]float64) (*core.Allocation, *platform.Residual) {
	K := pr.K()
	pl := pr.Platform
	alloc := core.NewAllocation(K)
	res := platform.NewResidual(pl)
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			a := alpha[k][l]
			if a <= 0 {
				continue
			}
			if k == l {
				alloc.Alpha[k][k] = math.Min(a, res.Speed[k])
				res.Speed[k] -= alloc.Alpha[k][k]
				continue
			}
			rt := pl.Route(k, l)
			if !rt.Exists {
				continue
			}
			var capA float64
			var beta int
			if math.IsInf(rt.MinBW, 1) {
				// Same-router route: only gateways constrain it.
				capA = a
			} else {
				beta = int(math.Floor(a/rt.MinBW + snapEps))
				if beta < 0 {
					beta = 0
				}
				capA = float64(beta) * rt.MinBW
			}
			a = minFloat(a, capA, res.Speed[l], res.Gateway[k], res.Gateway[l])
			if a < greedyTol {
				a = 0
				// A zero α does not need its connections; drop them so
				// the residual budget is not pointlessly consumed.
				beta = 0
			}
			alloc.Alpha[k][l] = a
			alloc.Beta[k][l] = beta
			res.Speed[l] -= a
			res.Gateway[k] -= a
			res.Gateway[l] -= a
			for _, li := range rt.Links {
				res.MaxConnect[li] -= beta
				if res.MaxConnect[li] < 0 {
					res.MaxConnect[li] = 0 // defensive; cannot happen with a feasible relaxation
				}
			}
		}
	}
	clampResidual(res)
	return alloc, res
}

// LPRG is the paper's round-off + greedy heuristic (§5.2.2) applied
// to rel, a relaxed optimum of pr: LPR gives the basic framework of the
// solution, and the greedy pass of §5.1 reclaims the residual network
// and compute capacity that the flooring discarded. Like LPR, it
// solves nothing.
func LPRG(pr *core.Problem, rel *core.RelaxedSolution) *core.Allocation {
	alloc, res := roundDown(pr, rel.Alpha)
	greedyFill(pr.Platform, nil, pr.Payoffs, res, alloc, false)
	return alloc
}

// LPRGOnModel is LPRG from RelaxOn(model, from), returning the root
// basis. It stays only for bench/trace.go's heuristics.lprg_us probe,
// which calls it with this signature; obj is ignored, because the model
// carries its objective (core.Model.Objective).
func LPRGOnModel(model *core.Model, pr *core.Problem, obj core.Objective, from *lp.Basis) (*core.Allocation, *lp.Basis, error) {
	rel, err := RelaxOn(model, from)
	if err != nil {
		return nil, nil, err
	}
	return LPRG(pr, rel.RelaxedSolution), rel.Root, nil
}
