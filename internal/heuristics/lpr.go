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

// Relaxation is pr's relaxation under one objective, solved once as a
// session's create solves it (Relax). Its RelaxedSolution is the
// optimum, whose value is the paper's LP bound: LPR and LPRG round it,
// and LPRR pins β on the model it was solved on, from it.
type Relaxation struct {
	*core.RelaxedSolution
	model  *core.Model
	pinned bool // an LPRR run has pinned model since its last root solve
}

// Relax builds pr's core.Model under obj and cold-solves it with
// SolveRelaxation, as a session's create does, so every heuristic
// rounds the vertex the service rounds.
func Relax(pr *core.Problem, obj core.Objective) (*Relaxation, error) {
	model, err := pr.NewModel(obj)
	if err != nil {
		return nil, err
	}
	if _, err := SolveRelaxation(model, nil); err != nil {
		return nil, err
	}
	return &Relaxation{RelaxedSolution: model.Solution(), model: model}, nil
}

// unpin returns the model to the relaxation's optimum after an LPRR run
// pinned it: a cold solve is a function of the program alone.
func (r *Relaxation) unpin() (err error) {
	if r.pinned {
		_, err = SolveRelaxation(r.model, nil)
		r.pinned = err != nil
	}
	return err
}

// SolveRelaxation is the one root solve: it resets model's β bounds and
// solves the unpinned relaxation warm from `from` (cold when nil),
// returning its bound. The all-zero allocation is always feasible, so
// an infeasible verdict is a model bug, errInfeasible, not an answer.
func SolveRelaxation(model *core.Model, from *lp.Basis) (float64, error) {
	model.ResetBounds()
	bound, ok, err := model.Solve(from)
	if err == nil && !ok {
		err = errInfeasible
	}
	return bound, err
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

// LPRGOnModel is LPRG over a caller-provided persistent core.Model:
// SolveRelaxation re-solves the unpinned relaxation warm from `from`,
// and LPRG rounds its optimum against pr's capacities. pr must share
// the model's platform structure (routes and links); its capacities may
// differ — the adaptability scenario, where the caller has already
// injected the epoch's platform into the model with core.Model.Inject.
// The returned basis snapshots the relaxation's optimal basis for the
// next warm start.
func LPRGOnModel(model *core.Model, pr *core.Problem, obj core.Objective, from *lp.Basis) (*core.Allocation, *lp.Basis, error) {
	alloc, basis, _, err := LPRGBoundOnModel(model, pr, obj, from)
	return alloc, basis, err
}

// LPRGBoundOnModel is LPRGOnModel that also returns the bound of the
// relaxation it rounded: the unpinned relaxation's optimum under the
// default β bounds, which a caller reporting the bound need not solve
// again.
func LPRGBoundOnModel(model *core.Model, pr *core.Problem, obj core.Objective, from *lp.Basis) (*core.Allocation, *lp.Basis, float64, error) {
	bound, err := SolveRelaxation(model, from)
	if err != nil {
		return nil, nil, 0, err
	}
	basis := model.Basis()
	return LPRG(pr, model.Solution()), basis, bound, nil
}
