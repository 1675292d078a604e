package adapt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/multiapp"
	"repro/internal/platform"
)

// WarmSolver computes one epoch's allocation from a persistent
// warm-started core.Model. The engine has already injected the
// epoch's capacities into the model (RHS-only SetSpeed/SetGateway
// mutations); epr is the matching perturbed problem, used for
// feasibility checks, objective evaluation and greedy refinement.
// `from` is the previous epoch's root basis (nil on the first call);
// implementations return the new root basis for the next epoch.
//
// heuristics.LPRGOnModel, heuristics.LPRROnModel (partially applied
// over a variant and rng) and heuristics.BranchAndBoundOnModel
// (partially applied over a node budget) all satisfy this signature.
type WarmSolver func(m *core.Model, epr *core.Problem, obj core.Objective, from *lp.Basis) (*core.Allocation, *lp.Basis, error)

// Validator is implemented by perturbation models that can check
// their own parameters; Run and RunWarm call it before the first
// epoch so misconfigured models fail with a clear error instead of
// NaN capacity factors.
type Validator interface {
	Validate() error
}

// validateModel applies Validator when the model implements it.
func validateModel(model Model) error {
	if v, ok := model.(Validator); ok {
		return v.Validate()
	}
	return nil
}

// CapacityTarget is anything epoch capacities can be injected into:
// core.Model (a core.Model.Fork is one) and multiapp.Model.
type CapacityTarget interface {
	SetSpeed(k int, speed float64) error
	SetGateway(k int, g float64) error
	SetLinkBudget(li int, maxConnect float64) error
}

// InjectCapacities writes the platform's cluster capacities and link
// budgets into the persistent model: speeds and gateways as RHS
// mutations, link budgets as RHS plus the affected routes' natural β
// upper bounds (SetLinkBudget recomputes them) — all within the
// warm-start contract, so the next solve still restarts from the
// previous epoch's basis. epl must share the model's platform
// structure (routes and links); only capacities may differ.
//
// It is the only writer of a model's capacities: commit, pose and
// retract. The epoch drivers here and the scheduling service's epoch
// commit inject the period's platform; a what-if poses a hypothetical
// platform the same way (on the session model, or on a fork for a
// batch) and is retracted by injecting the committed platform again —
// every capacity is overwritten, so the model ends where a single
// injection of that platform would have put it.
func InjectCapacities(m CapacityTarget, epl *platform.Platform) error {
	for k, c := range epl.Clusters {
		if err := m.SetSpeed(k, c.Speed); err != nil {
			return err
		}
		if err := m.SetGateway(k, c.Gateway); err != nil {
			return err
		}
	}
	for li, l := range epl.Links {
		if err := m.SetLinkBudget(li, float64(l.MaxConnect)); err != nil {
			return err
		}
	}
	return nil
}

// RunWarm drives the same epoch loop as Run, but over one persistent
// warm-started core.Model instead of a cold per-epoch rebuild: the
// model is built once from the nominal problem, each epoch's
// Perturbation lands as capacity and bound mutations, and the solver
// restarts the revised simplex from the previous epoch's optimal
// basis. The structure-frozen/capacities-and-bounds-mutate contract
// means the results are the same steady-state optimizations Run
// performs — with BranchAndBoundOnModel both paths prove identical
// optima — at a fraction of the per-epoch cost.
func RunWarm(pr *core.Problem, solve WarmSolver, model Model, obj core.Objective, epochs int) ([]EpochResult, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("adapt: epochs = %d, want >= 1", epochs)
	}
	if err := validateModel(model); err != nil {
		return nil, err
	}
	cm, err := pr.NewModel(obj) // validates pr
	if err != nil {
		return nil, err
	}
	staticAlloc, basis, err := solve(cm, pr, obj, nil)
	if err != nil {
		return nil, fmt.Errorf("adapt: solving nominal platform: %w", err)
	}
	if err := pr.CheckAllocation(staticAlloc, core.DefaultTol); err != nil {
		return nil, fmt.Errorf("adapt: nominal allocation invalid: %w", err)
	}
	out := make([]EpochResult, 0, epochs)
	for e := 0; e < epochs; e++ {
		pert := model.Epoch(e)
		epl, err := pert.Apply(pr.Platform)
		if err != nil {
			return nil, err
		}
		epr := &core.Problem{Platform: epl, Payoffs: pr.Payoffs}
		if err := InjectCapacities(cm, epl); err != nil {
			return nil, fmt.Errorf("adapt: epoch %d: %w", e, err)
		}
		adaptive, nextBasis, err := solve(cm, epr, obj, basis)
		if err != nil {
			return nil, fmt.Errorf("adapt: epoch %d: %w", e, err)
		}
		if err := epr.CheckAllocation(adaptive, core.DefaultTol); err != nil {
			return nil, fmt.Errorf("adapt: epoch %d allocation invalid: %w", e, err)
		}
		basis = nextBasis
		out = append(out, EpochResult{
			Epoch:    e,
			Adaptive: epr.Objective(obj, adaptive),
			Static:   epr.Objective(obj, Throttle(epr, staticAlloc)),
		})
	}
	return out, nil
}

// BoundResult is one epoch of a relaxation-bound trace: the optimal
// value of the rational relaxation on that epoch's perturbed
// platform (an upper bound on any integral allocation's objective).
type BoundResult struct {
	Epoch int
	Bound float64
}

// RunWarmBounds traces the single-application relaxation optimum
// across epochs on one persistent core.Model. Because an LP's
// optimal value is unique (even when the optimal vertex is not),
// this trace is bitwise comparable against a cold per-epoch rebuild
// — the property the warm-vs-cold tests pin down to 1e-9.
func RunWarmBounds(pr *core.Problem, model Model, obj core.Objective, epochs int) ([]BoundResult, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("adapt: epochs = %d, want >= 1", epochs)
	}
	if err := validateModel(model); err != nil {
		return nil, err
	}
	cm, err := pr.NewModel(obj) // validates pr
	if err != nil {
		return nil, err
	}
	var basis *lp.Basis
	out := make([]BoundResult, 0, epochs)
	for e := 0; e < epochs; e++ {
		pert := model.Epoch(e)
		epl, err := pert.Apply(pr.Platform)
		if err != nil {
			return nil, err
		}
		if err := InjectCapacities(cm, epl); err != nil {
			return nil, fmt.Errorf("adapt: epoch %d: %w", e, err)
		}
		sol, nextBasis, ok, err := cm.Solve(basis)
		if err != nil {
			return nil, fmt.Errorf("adapt: epoch %d: %w", e, err)
		}
		if !ok {
			return nil, fmt.Errorf("adapt: epoch %d relaxation infeasible (model bug)", e)
		}
		basis = nextBasis
		out = append(out, BoundResult{Epoch: e, Bound: sol.Objective})
	}
	return out, nil
}

// RunWarmMulti is the multi-application counterpart of RunWarmBounds:
// it traces the multiapp relaxation optimum across epochs on one
// persistent multiapp.Model, injecting each epoch's capacities with
// the model's RHS-only mutators and warm-starting every re-solve
// from the previous epoch's basis (the model keeps it internally).
func RunWarmMulti(mpr *multiapp.Problem, model Model, obj core.Objective, epochs int) ([]BoundResult, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("adapt: epochs = %d, want >= 1", epochs)
	}
	if err := mpr.Validate(); err != nil {
		return nil, err
	}
	if err := validateModel(model); err != nil {
		return nil, err
	}
	mm, err := mpr.NewModel(obj)
	if err != nil {
		return nil, err
	}
	out := make([]BoundResult, 0, epochs)
	for e := 0; e < epochs; e++ {
		pert := model.Epoch(e)
		epl, err := pert.Apply(mpr.Platform)
		if err != nil {
			return nil, err
		}
		if err := InjectCapacities(mm, epl); err != nil {
			return nil, fmt.Errorf("adapt: epoch %d: %w", e, err)
		}
		sol, err := mm.Solve()
		if err != nil {
			return nil, fmt.Errorf("adapt: epoch %d: %w", e, err)
		}
		out = append(out, BoundResult{Epoch: e, Bound: sol.Objective})
	}
	return out, nil
}
