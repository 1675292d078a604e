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
// package adds is the applications (App, Problem, Validate) and Greedy,
// §5.1's greedy on pooled connections.
package multiapp

import (
	"fmt"
	"math"

	"repro/internal/core"
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

// Greedy is the §5.1 heuristic generalized to applications: at every
// step the application with the smallest relative share α_a·π_a picks
// its most profitable cluster; pooled route connections are opened on
// demand. Applications with payoff 0 are excluded.
func (pr *Problem) Greedy() (*core.Allocation, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	K := pr.Platform.K()
	A := len(pr.Apps)
	pl := pr.Platform
	al := &core.Allocation{Alpha: make([][]float64, A), Beta: make([][]int, K)}
	for a := 0; a < A; a++ {
		al.Alpha[a] = make([]float64, K)
	}
	for k := 0; k < K; k++ {
		al.Beta[k] = make([]int, K)
	}
	res := platform.NewResidual(pl)
	// Residual per-route capacity opened so far but not yet used:
	// pooled connections can carry more than one app's traffic.
	routeSpare := make(map[core.Pair]float64)

	live := make([]bool, A)
	n := 0
	for a := 0; a < A; a++ {
		if pr.Apps[a].Payoff > 0 {
			live[a] = true
			n++
		}
	}
	totalSlots := 0
	for _, mc := range res.MaxConnect {
		totalSlots += mc
	}
	maxSteps := 100*A + totalSlots + 1000
	const tol = 1e-9

	for step := 0; n > 0 && step < maxSteps; step++ {
		// Select the app with the smallest share.
		sel := -1
		for a := 0; a < A; a++ {
			if !live[a] {
				continue
			}
			if sel == -1 {
				sel = a
				continue
			}
			sa := al.AppThroughput(a) * pr.Apps[a].Payoff
			sb := al.AppThroughput(sel) * pr.Apps[sel].Payoff
			if sa < sb-tol || (math.Abs(sa-sb) <= tol && pr.Apps[a].Payoff > pr.Apps[sel].Payoff) {
				sel = a
			}
		}
		origin := pr.Apps[sel].Origin
		// Pick the best target.
		bestL, bestB := -1, 0.0
		for l := 0; l < K; l++ {
			var b float64
			if l == origin {
				b = res.Speed[l]
			} else {
				rt := pl.Route(origin, l)
				if !rt.Exists {
					continue
				}
				// Either spare pooled capacity or a fresh connection.
				spare := math.Min(routeSpare[core.Pair{K: origin, L: l}],
					minFloat(res.Gateway[origin], res.Gateway[l], res.Speed[l]))
				fresh := 0.0
				if res.RouteOpen(origin, l) {
					fresh = minFloat(res.Gateway[origin], rt.MinBW, res.Gateway[l], res.Speed[l])
				}
				b = math.Max(spare, fresh)
			}
			if b > bestB+tol {
				bestB = b
				bestL = l
			}
		}
		if bestL == -1 || bestB <= tol {
			live[sel] = false
			n--
			continue
		}
		if bestL == origin {
			// Local step with the §5.1 contention guard, pooled form.
			amount := 0.0
			for m := 0; m < K; m++ {
				if m == origin {
					continue
				}
				cand := minFloat(res.Gateway[origin], pl.RouteBW(m, origin), res.Gateway[m], res.Speed[origin])
				if !res.RouteOpen(m, origin) {
					cand = 0
				}
				if cand > amount {
					amount = cand
				}
			}
			if amount > res.Speed[origin] {
				amount = res.Speed[origin]
			}
			if amount <= tol {
				live[sel] = false
				n--
				continue
			}
			res.Speed[origin] -= amount
			al.Alpha[sel][origin] += amount
			continue
		}
		// Remote step: use spare pooled capacity first, else open a
		// new connection.
		l := bestL
		pair := core.Pair{K: origin, L: l}
		amount := bestB
		spare := routeSpare[pair]
		if amount <= spare+tol && spare > tol {
			if amount > spare {
				amount = spare
			}
			routeSpare[pair] = spare - amount
		} else {
			res.OpenConnection(origin, l)
			al.Beta[origin][l]++
			bw := pl.RouteBW(origin, l)
			if !math.IsInf(bw, 1) {
				routeSpare[pair] = spare + bw - amount
			}
		}
		res.Speed[l] -= amount
		res.Gateway[origin] -= amount
		res.Gateway[l] -= amount
		al.Alpha[sel][l] += amount
	}
	return al, nil
}

func minFloat(vs ...float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}
