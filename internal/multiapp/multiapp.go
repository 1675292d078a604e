// Package multiapp is the extension the paper sketches in §3.1: "our
// method is easily extensible to the case in which more than one
// application originate from the same cluster". Any number of
// applications may share an origin (as core defines it), and a cluster
// may be the origin of none. α_{a,l} is application a's load on cluster
// l; speeds (7b) and gateways (7c) are shared by all applications, and
// the connections of route (k,l) (7d)/(7e) are pooled across the
// applications of origin k. Program (7) itself is core's, written down
// once for one or several applications per origin (core.RelaxedApps,
// core.Problem.CheckAllocation, core.Objective.Value). What this
// package adds is the applications (App, Problem, Validate); Greedy is
// heuristics' one §5.1 loop run over them.
package multiapp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platform"
)

// App is one divisible-load application: its origin is cluster Origin,
// and it carries payoff factor Payoff (π_a of §3.1).
type App struct {
	Name   string
	Origin int
	Payoff float64
}

// Problem couples a platform with any number of applications. Unlike
// core.Problem, several applications may share an origin cluster and
// clusters may host no application at all.
type Problem struct {
	Platform *platform.Platform
	Apps     []App
}

// Validate checks origins and payoffs.
func (pr *Problem) Validate() error {
	if pr.Platform == nil {
		return fmt.Errorf("multiapp: nil platform")
	}
	if err := pr.Platform.Validate(); err != nil {
		return err
	}
	if len(pr.Apps) == 0 {
		return fmt.Errorf("multiapp: no applications")
	}
	for a, app := range pr.Apps {
		if app.Origin < 0 || app.Origin >= pr.Platform.K() {
			return fmt.Errorf("multiapp: app %d origin %d out of range", a, app.Origin)
		}
		if app.Payoff < 0 || math.IsNaN(app.Payoff) || math.IsInf(app.Payoff, 0) {
			return fmt.Errorf("multiapp: app %d payoff %g invalid", a, app.Payoff)
		}
	}
	return nil
}

// split returns each application's origin and payoff, in order.
func (pr *Problem) split() (origins []int, payoffs []float64) {
	origins, payoffs = make([]int, len(pr.Apps)), make([]float64, len(pr.Apps))
	for a, app := range pr.Apps {
		origins[a], payoffs[a] = app.Origin, app.Payoff
	}
	return origins, payoffs
}

// Objective evaluates SUM or MAXMIN over the applications (MAXMIN
// over those with positive payoff); see core.Objective.Value.
func (pr *Problem) Objective(obj core.Objective, al *core.Allocation) float64 {
	_, payoffs := pr.split()
	return obj.Value(payoffs, al)
}

// CheckAllocation verifies al, one α row per application, against
// program (7) within tolerance tol. What is per application is checked
// here: α_{a,l} ≥ −tol, and α_{a,l} ≤ tol off the routes a's origin has.
// The rest is core.Problem.CheckAllocation on the allocation pooled by
// origin, α_{k,l} = Σ_{a of origin k} α_{a,l} with β as given. A pooled
// check alone would pass α_{u,l} = −5 beside α_{v,l} = +5 from one
// origin.
func (pr *Problem) CheckAllocation(al *core.Allocation, tol float64) error {
	if err := pr.Validate(); err != nil {
		return err
	}
	K := pr.Platform.K()
	if len(al.Alpha) != len(pr.Apps) {
		return fmt.Errorf("multiapp: %d alpha rows for %d applications", len(al.Alpha), len(pr.Apps))
	}
	pooled := core.NewAllocation(K)
	pooled.Beta = al.Beta
	for a, app := range pr.Apps {
		if len(al.Alpha[a]) != K {
			return fmt.Errorf("multiapp: alpha row %d has wrong width", a)
		}
		for l, v := range al.Alpha[a] {
			if v < -tol {
				return fmt.Errorf("multiapp: α_{%d,%d} = %g < 0", a, l, v)
			}
			if l != app.Origin && v > tol && !pr.Platform.Route(app.Origin, l).Exists {
				return fmt.Errorf("multiapp: α_{%d,%d} over nonexistent route", a, l)
			}
			pooled.Alpha[app.Origin][l] += v
		}
	}
	return (&core.Problem{Platform: pr.Platform}).CheckAllocation(pooled, tol)
}

// Relaxed solves the rational relaxation in α-space with one α row per
// application: core.RelaxedApps, whose routes pool their connections
// over the applications of their origin. The LP is built and
// cold-solved once per call.
func (pr *Problem) Relaxed(obj core.Objective) (*core.RelaxedSolution, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	origins, payoffs := pr.split()
	rel, ok, err := core.RelaxedApps(pr.Platform, origins, payoffs, obj)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("multiapp: relaxation infeasible (zero is always feasible)")
	}
	return rel, nil
}

// Greedy is §5.1's greedy heuristic over the applications
// (heuristics.GreedyApps): at every step the application with the
// smallest relative share α_a·π_a picks its most profitable cluster,
// opening one connection of its origin's route per remote step.
// Applications with payoff 0 are excluded.
func (pr *Problem) Greedy() (*core.Allocation, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	origins, payoffs := pr.split()
	return heuristics.GreedyApps(pr.Platform, origins, payoffs), nil
}
