// Package core implements the paper's steady-state multi-application
// divisible-load scheduling problem (§3): the activity variables
// α_{k,l} (load of application A_k shipped from its origin C^k and
// computed on cluster C^l per time unit) and β_{k,l} (number of
// network connections opened from C^k to C^l), the steady-state
// constraints of Equations (7a)-(7g), the SUM and MAXMIN objectives
// of Equations (5)/(6), and the linear-program builders used by the
// LP-based heuristics and the exact branch-and-bound solver.
package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/platform"
)

// Objective selects between the paper's two optimization criteria.
type Objective int

const (
	// SUM maximizes the total payoff Σ_k π_k·α_k (Equation 5).
	SUM Objective = iota
	// MAXMIN maximizes the minimum payoff min_k π_k·α_k over
	// applications with π_k > 0 (Equation 6) — MAX-MIN fairness.
	MAXMIN
)

func (o Objective) String() string {
	switch o {
	case SUM:
		return "SUM"
	case MAXMIN:
		return "MAXMIN"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjective maps an objective's wire name, sum or maxmin, to it.
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "sum":
		return SUM, nil
	case "maxmin":
		return MAXMIN, nil
	}
	return 0, fmt.Errorf("unknown objective %q (want sum or maxmin)", name)
}

// Problem couples a platform with the per-application payoff factors
// π_k. Application A_k originates at cluster C^k, so len(Payoffs)
// must equal the platform's cluster count.
type Problem struct {
	Platform *platform.Platform
	Payoffs  []float64
}

// NewProblem builds a problem with unit payoffs (π_k = 1 for all k).
func NewProblem(pl *platform.Platform) *Problem {
	pi := make([]float64, pl.K())
	for i := range pi {
		pi[i] = 1
	}
	return &Problem{Platform: pl, Payoffs: pi}
}

// MaxScale bounds a problem's scale, max_k π_k × Σ_l s_l, which
// bounds every objective value, throughput and α cell of the problem
// (DESIGN.md "Heuristics (§5)"). Validate refuses a problem above it,
// so nothing downstream of a valid problem meets a NaN or ±Inf.
const MaxScale = 1e300

// Scale returns the problem's largest payoff and its platform's total
// speed, whose product Validate holds to MaxScale.
func (pr *Problem) Scale() (payoff, speed float64) {
	for _, pi := range pr.Payoffs {
		payoff = max(payoff, pi)
	}
	for _, c := range pr.Platform.Clusters {
		speed += c.Speed
	}
	return payoff, speed
}

// Validate checks the problem's structural invariants.
func (pr *Problem) Validate() error {
	if pr.Platform == nil {
		return fmt.Errorf("core: nil platform")
	}
	if err := pr.Platform.Validate(); err != nil {
		return err
	}
	if len(pr.Payoffs) != pr.Platform.K() {
		return fmt.Errorf("core: %d payoffs for %d clusters", len(pr.Payoffs), pr.Platform.K())
	}
	for k, pi := range pr.Payoffs {
		if pi < 0 || math.IsNaN(pi) || math.IsInf(pi, 0) {
			return fmt.Errorf("core: payoff %d = %g, want finite nonnegative", k, pi)
		}
	}
	if payoff, speed := pr.Scale(); !(payoff*speed <= MaxScale) {
		return fmt.Errorf("core: max payoff %g × total speed %g is above %g", payoff, speed, MaxScale)
	}
	return nil
}

// K returns the number of applications (= clusters).
func (pr *Problem) K() int { return pr.Platform.K() }

// Allocation is a candidate steady-state operating point: Alpha[a][l]
// is application a's α_{a,l}, one row per application, and Beta[k][l]
// is β_{k,l}, the connections opened on route (k, l), one row per
// cluster. The diagonal of Beta is unused (local computation opens no
// connection) and must be 0.
type Allocation struct {
	Alpha [][]float64
	Beta  [][]int
}

// NewAllocation returns the all-zero allocation for k applications,
// which is always valid (Equations 7 hold trivially).
func NewAllocation(k int) *Allocation {
	a := &Allocation{Alpha: make([][]float64, k), Beta: make([][]int, k)}
	for i := 0; i < k; i++ {
		a.Alpha[i] = make([]float64, k)
		a.Beta[i] = make([]int, k)
	}
	return a
}

// Clone deep-copies the allocation.
func (a *Allocation) Clone() *Allocation {
	c := &Allocation{Alpha: make([][]float64, len(a.Alpha)), Beta: make([][]int, len(a.Beta))}
	for i, row := range a.Alpha {
		c.Alpha[i] = slices.Clone(row)
	}
	for k, row := range a.Beta {
		c.Beta[k] = slices.Clone(row)
	}
	return c
}

// AppThroughput returns α_k = Σ_l α_{k,l} (Equation 7a): the load
// processed for application A_k per time unit.
func (a *Allocation) AppThroughput(k int) float64 {
	sum := 0.0
	for _, v := range a.Alpha[k] {
		sum += v
	}
	return sum
}

// Objective evaluates the allocation under the given criterion.
func (pr *Problem) Objective(obj Objective, a *Allocation) float64 {
	return obj.Value(pr.Payoffs, a)
}

// Value evaluates allocation a under o for the applications whose
// payoffs are payoffs, one per row of a.Alpha. MAXMIN is taken over
// applications with π > 0; if there are none it returns 0.
func (o Objective) Value(payoffs []float64, a *Allocation) float64 {
	switch o {
	case SUM:
		total := 0.0
		for k := range payoffs {
			total += payoffs[k] * a.AppThroughput(k)
		}
		return total
	case MAXMIN:
		minv := math.Inf(1)
		seen := false
		for k, pi := range payoffs {
			if pi <= 0 {
				continue
			}
			seen = true
			if v := pi * a.AppThroughput(k); v < minv {
				minv = v
			}
		}
		if !seen {
			return 0
		}
		return minv
	}
	panic(fmt.Sprintf("core: unknown objective %d", int(o)))
}

// DefaultTol is the feasibility tolerance used by CheckAllocation for
// floating-point allocations produced by the LP-based heuristics.
const DefaultTol = 1e-6

// IntegralityTol is the threshold below which a relaxed connection
// count β̃ is treated as integral (the branch-and-bound leaf test).
// It is deliberately the same magnitude as DefaultTol: a β rounded
// under this tolerance must still pass CheckAllocation at DefaultTol,
// so the two constants are kept as one shared value instead of
// drifting apart as duplicated magic numbers.
const IntegralityTol = DefaultTol

// CheckAllocation verifies Equations (7b)-(7g) against the platform,
// within an absolute-plus-relative tolerance tol per constraint. It
// returns nil iff the allocation is a valid steady-state operating
// point. Additionally it enforces the model-level invariants that
// work only flows over existing routes and that the Beta diagonal is
// zero.
func (pr *Problem) CheckAllocation(a *Allocation, tol float64) error {
	K := pr.K()
	if len(a.Alpha) != K || len(a.Beta) != K {
		return fmt.Errorf("core: allocation sized %dx? for K=%d", len(a.Alpha), K)
	}
	pl := pr.Platform
	// (7f)/(7g): signs, integrality (by type), diagonal, route existence.
	for k := 0; k < K; k++ {
		if len(a.Alpha[k]) != K || len(a.Beta[k]) != K {
			return fmt.Errorf("core: allocation row %d has wrong width", k)
		}
		if a.Beta[k][k] != 0 {
			return fmt.Errorf("core: β_{%d,%d} = %d on the diagonal, want 0", k, k, a.Beta[k][k])
		}
		for l := 0; l < K; l++ {
			if a.Alpha[k][l] < -tol {
				return fmt.Errorf("core: α_{%d,%d} = %g < 0", k, l, a.Alpha[k][l])
			}
			if a.Beta[k][l] < 0 {
				return fmt.Errorf("core: β_{%d,%d} = %d < 0", k, l, a.Beta[k][l])
			}
			if k != l && a.Alpha[k][l] > tol && !pl.Route(k, l).Exists {
				return fmt.Errorf("core: α_{%d,%d} = %g but no route exists", k, l, a.Alpha[k][l])
			}
		}
	}
	// (7b): cluster speed.
	for l := 0; l < K; l++ {
		in := 0.0
		for k := 0; k < K; k++ {
			in += a.Alpha[k][l]
		}
		if s := pl.Clusters[l].Speed; in > s+tol*(1+s) {
			return fmt.Errorf("core: Eq 7b violated at cluster %d: load %g > speed %g", l, in, s)
		}
	}
	// (7c): gateway capacity (outgoing + incoming remote traffic).
	for k := 0; k < K; k++ {
		traffic := 0.0
		for l := 0; l < K; l++ {
			if l == k {
				continue
			}
			traffic += a.Alpha[k][l] + a.Alpha[l][k]
		}
		if g := pl.Clusters[k].Gateway; traffic > g+tol*(1+g) {
			return fmt.Errorf("core: Eq 7c violated at cluster %d: traffic %g > gateway %g", k, traffic, g)
		}
	}
	// (7d): backbone connection budgets.
	used := make([]int, len(pl.Links))
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if k == l || a.Beta[k][l] == 0 {
				continue
			}
			rt := pl.Route(k, l)
			if !rt.Exists {
				return fmt.Errorf("core: β_{%d,%d} = %d but no route exists", k, l, a.Beta[k][l])
			}
			for _, li := range rt.Links {
				used[li] += a.Beta[k][l]
			}
		}
	}
	for li, u := range used {
		if u > pl.Links[li].MaxConnect {
			return fmt.Errorf("core: Eq 7d violated on link %d: %d connections > max-connect %d", li, u, pl.Links[li].MaxConnect)
		}
	}
	// (7e): route bandwidth α_{k,l} <= β_{k,l}·min bw. Routes that
	// cross no backbone link (clusters on the same router) have
	// infinite per-connection bandwidth and are constrained only by
	// the gateways, so (7e) is vacuous there.
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if k == l || a.Alpha[k][l] <= tol {
				continue
			}
			bw := pl.RouteBW(k, l)
			if math.IsInf(bw, 1) {
				continue
			}
			capKL := float64(a.Beta[k][l]) * bw
			if a.Alpha[k][l] > capKL+tol*(1+capKL) {
				return fmt.Errorf("core: Eq 7e violated on route (%d,%d): α=%g > β·bw=%g", k, l, a.Alpha[k][l], capKL)
			}
		}
	}
	return nil
}

// Pair identifies an ordered pair of indices (K, L): the route from
// origin cluster C^K to cluster C^L, or application K's load α_{K,L} on
// C^L. Under Problem, application A_K's origin is C^K, so the two
// readings coincide.
type Pair struct{ K, L int }

// RelaxedApps solves the rational relaxation of linear program (7) in
// the α-space encoding (DESIGN.md "β elimination"), for any set of
// applications on platform pl: application a has origin C^origins[a]
// and payoff payoffs[a]. Several may share an origin, and a cluster may
// be the origin of none. Alpha has one row per application; Beta[k][l]
// is route (k,l)'s flow, pooled over the applications of origin k, over
// bw_min(k,l). Returns ok=false when the solver reports the constraints
// infeasible. The caller validates: pl is routed, every origin is a
// cluster, every payoff finite and nonnegative. No heuristic rounds its
// optimum; they round a Model's.
func RelaxedApps(pl *platform.Platform, origins []int, payoffs []float64, obj Objective) (*RelaxedSolution, bool, error) {
	return relaxed(newAlphaLayout(pl, origins, payoffs), obj)
}

// relaxed builds the α-space program over lay and cold-solves it once.
func relaxed(lay alphaLayout, obj Objective) (*RelaxedSolution, bool, error) {
	n := len(lay.vars)
	if obj == MAXMIN {
		n++ // the level t
	}
	prob := lp.New(n)
	if err := lay.addObjective(prob, obj); err != nil {
		return nil, false, err
	}
	lay.addClusterRows(prob)
	lay.addAlphaLinkRows(prob)

	sol, err := prob.Solve()
	if err != nil {
		return nil, false, err
	}
	if ok, err := verdict(sol); !ok {
		return nil, false, err
	}
	return lay.alphaSpaceSolution(sol), true, nil
}
