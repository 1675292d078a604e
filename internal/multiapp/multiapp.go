// Package multiapp implements the extension the paper sketches in
// §3.1: "our method is easily extensible to the case in which more
// than one application originate from the same cluster". Activity
// variables become α_{a,l} — the load of application a (with origin
// cluster origin(a)) computed on cluster l — while the platform
// constraints stay per-cluster: the cluster speeds (7b), the gateway
// capacities (7c) and the per-route connection budgets (7d)/(7e) are
// shared by all applications of a cluster. Connections on a route
// (k,l) are pooled across the applications originating at k.
package multiapp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/platform"
)

// App is one divisible-load application: it originates at cluster
// Origin (where its input data lives) and carries payoff factor
// Payoff (π_a of §3.1).
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

// Allocation is a steady-state operating point: Alpha[a][l] is the
// load of application a computed on cluster l per time unit;
// Beta[k][l] is the pooled connection count from cluster k to l.
type Allocation struct {
	Alpha [][]float64
	Beta  [][]int
}

// AppThroughput returns Σ_l α_{a,l}.
func (al *Allocation) AppThroughput(a int) float64 {
	sum := 0.0
	for _, v := range al.Alpha[a] {
		sum += v
	}
	return sum
}

// Objective evaluates SUM or MAXMIN over the applications (MAXMIN
// over those with positive payoff).
func (pr *Problem) Objective(obj core.Objective, al *Allocation) float64 {
	switch obj {
	case core.SUM:
		total := 0.0
		for a, app := range pr.Apps {
			total += app.Payoff * al.AppThroughput(a)
		}
		return total
	case core.MAXMIN:
		minv := math.Inf(1)
		seen := false
		for a, app := range pr.Apps {
			if app.Payoff <= 0 {
				continue
			}
			seen = true
			if v := app.Payoff * al.AppThroughput(a); v < minv {
				minv = v
			}
		}
		if !seen {
			return 0
		}
		return minv
	}
	panic(fmt.Sprintf("multiapp: unknown objective %d", int(obj)))
}

// CheckAllocation verifies the shared-platform analogues of
// Equations (7) within tolerance tol.
func (pr *Problem) CheckAllocation(al *Allocation, tol float64) error {
	if err := pr.Validate(); err != nil {
		return err
	}
	K := pr.Platform.K()
	A := len(pr.Apps)
	if len(al.Alpha) != A || len(al.Beta) != K {
		return fmt.Errorf("multiapp: allocation shape mismatch")
	}
	pl := pr.Platform
	// Signs, route existence.
	for a := 0; a < A; a++ {
		if len(al.Alpha[a]) != K {
			return fmt.Errorf("multiapp: alpha row %d has wrong width", a)
		}
		for l := 0; l < K; l++ {
			if al.Alpha[a][l] < -tol {
				return fmt.Errorf("multiapp: α_{%d,%d} = %g < 0", a, l, al.Alpha[a][l])
			}
			k := pr.Apps[a].Origin
			if l != k && al.Alpha[a][l] > tol && !pl.Route(k, l).Exists {
				return fmt.Errorf("multiapp: α_{%d,%d} over nonexistent route", a, l)
			}
		}
	}
	// (7b) speeds.
	for l := 0; l < K; l++ {
		in := 0.0
		for a := 0; a < A; a++ {
			in += al.Alpha[a][l]
		}
		if s := pl.Clusters[l].Speed; in > s+tol*(1+s) {
			return fmt.Errorf("multiapp: cluster %d overloaded: %g > %g", l, in, s)
		}
	}
	// (7c) gateways: all remote traffic in or out of cluster k.
	for k := 0; k < K; k++ {
		traffic := 0.0
		for a := 0; a < A; a++ {
			origin := pr.Apps[a].Origin
			for l := 0; l < K; l++ {
				if (origin == k) != (l == k) {
					traffic += al.Alpha[a][l]
				}
			}
		}
		if g := pl.Clusters[k].Gateway; traffic > g+tol*(1+g) {
			return fmt.Errorf("multiapp: gateway %d overloaded: %g > %g", k, traffic, g)
		}
	}
	// (7d) pooled connection budgets.
	used := make([]int, len(pl.Links))
	for k := 0; k < K; k++ {
		if len(al.Beta[k]) != K {
			return fmt.Errorf("multiapp: beta row %d has wrong width", k)
		}
		for l := 0; l < K; l++ {
			b := al.Beta[k][l]
			if b < 0 {
				return fmt.Errorf("multiapp: β_{%d,%d} < 0", k, l)
			}
			if b == 0 || k == l {
				continue
			}
			rt := pl.Route(k, l)
			if !rt.Exists {
				return fmt.Errorf("multiapp: β_{%d,%d} over nonexistent route", k, l)
			}
			for _, li := range rt.Links {
				used[li] += b
			}
		}
	}
	for li, u := range used {
		if u > pl.Links[li].MaxConnect {
			return fmt.Errorf("multiapp: link %d carries %d connections, max %d", li, u, pl.Links[li].MaxConnect)
		}
	}
	// (7e) pooled route bandwidth.
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if k == l {
				continue
			}
			flow := 0.0
			for a := 0; a < A; a++ {
				if pr.Apps[a].Origin == k {
					flow += al.Alpha[a][l]
				}
			}
			if flow <= tol {
				continue
			}
			bw := pl.RouteBW(k, l)
			if math.IsInf(bw, 1) {
				continue
			}
			capF := float64(al.Beta[k][l]) * bw
			if flow > capF+tol*(1+capF) {
				return fmt.Errorf("multiapp: route (%d,%d) flow %g exceeds β·bw %g", k, l, flow, capF)
			}
		}
	}
	return nil
}

// RelaxedSolution is the rational relaxation optimum for the
// multi-application problem.
type RelaxedSolution struct {
	Alpha     [][]float64 // [app][cluster]
	Objective float64
}

// Relaxed solves the rational relaxation in α-space, exactly like
// core.Relaxed but with one variable row per application. Pooled
// connections are eliminated the same way: route (k,l) consumes
// (Σ_{a at k} α_{a,l})/bw_min connection-equivalents on each of its
// links. The LP is built and cold-solved once per call.
func (pr *Problem) Relaxed(obj core.Objective) (*RelaxedSolution, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	K := pr.Platform.K()
	pl := pr.Platform
	// col[a][l] is the LP column of α_{a,l}, -1 where no route leads
	// from a's origin to l.
	col := make([][]int, len(pr.Apps))
	nv := 0
	for a, app := range pr.Apps {
		col[a] = make([]int, K)
		for l := range col[a] {
			col[a][l] = -1
			if l == app.Origin || pl.Route(app.Origin, l).Exists {
				col[a][l] = nv
				nv++
			}
		}
	}
	total := nv
	if obj == core.MAXMIN {
		total++ // the level t, column nv
	}
	prob := lp.New(total)
	addLE := func(terms []lp.Term, rhs float64) {
		if len(terms) > 0 {
			prob.AddConstraint(terms, lp.LE, rhs)
		}
	}
	switch obj {
	case core.SUM:
		for a, app := range pr.Apps {
			for _, c := range col[a] {
				if c >= 0 {
					prob.SetObjective(c, app.Payoff)
				}
			}
		}
	case core.MAXMIN:
		// t ≤ π_a·Σ_l α_{a,l} for every application with positive payoff.
		prob.SetObjective(nv, 1)
		any := false
		for a, app := range pr.Apps {
			if app.Payoff <= 0 {
				continue
			}
			any = true
			terms := []lp.Term{{Var: nv, Coeff: 1}}
			for _, c := range col[a] {
				if c >= 0 {
					terms = append(terms, lp.Term{Var: c, Coeff: -app.Payoff})
				}
			}
			prob.AddConstraint(terms, lp.LE, 0)
		}
		if !any {
			return nil, fmt.Errorf("multiapp: MAXMIN with no positive payoff")
		}
	default:
		return nil, fmt.Errorf("multiapp: unknown objective %v", obj)
	}

	// (7b) speeds.
	for l := 0; l < K; l++ {
		var terms []lp.Term
		for a := range col {
			if c := col[a][l]; c >= 0 {
				terms = append(terms, lp.Term{Var: c, Coeff: 1})
			}
		}
		addLE(terms, pl.Clusters[l].Speed)
	}
	// (7c) gateways: all remote traffic in or out of cluster k.
	for k := 0; k < K; k++ {
		var terms []lp.Term
		for a, app := range pr.Apps {
			for l, c := range col[a] {
				if c >= 0 && (app.Origin == k) != (l == k) {
					terms = append(terms, lp.Term{Var: c, Coeff: 1})
				}
			}
		}
		addLE(terms, pl.Clusters[k].Gateway)
	}
	// (7d)+(7e) per link, pooled per origin route.
	linkUse := make([][]lp.Term, len(pl.Links))
	for a, app := range pr.Apps {
		for l, c := range col[a] {
			if c < 0 || l == app.Origin {
				continue
			}
			rt := pl.Route(app.Origin, l)
			if rt.MinBW <= 0 || math.IsInf(rt.MinBW, 1) {
				continue
			}
			for _, li := range rt.Links {
				linkUse[li] = append(linkUse[li], lp.Term{Var: c, Coeff: 1 / rt.MinBW})
			}
		}
	}
	for li, terms := range linkUse {
		addLE(terms, float64(pl.Links[li].MaxConnect))
	}

	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("multiapp: relaxation %v (zero is always feasible)", sol.Status)
	}
	out := &RelaxedSolution{Alpha: make([][]float64, len(col)), Objective: sol.Objective}
	for a := range col {
		out.Alpha[a] = make([]float64, K)
		for l, c := range col[a] {
			if c >= 0 && sol.X[c] > 0 {
				out.Alpha[a][l] = sol.X[c]
			}
		}
	}
	return out, nil
}

// Greedy is the §5.1 heuristic generalized to applications: at every
// step the application with the smallest relative share α_a·π_a picks
// its most profitable cluster; pooled route connections are opened on
// demand. Applications with payoff 0 are excluded.
func (pr *Problem) Greedy() (*Allocation, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	K := pr.Platform.K()
	A := len(pr.Apps)
	pl := pr.Platform
	al := &Allocation{Alpha: make([][]float64, A), Beta: make([][]int, K)}
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
