// Package adapt holds the inputs and the baseline of the paper's §1
// adaptability argument: "because the schedule is periodic, it is
// possible to dynamically record the observed performance during the
// current period, and to inject this information into the algorithm
// that will compute the optimal schedule for the next period".
//
// A Perturbation rescales a platform's gateways, speeds and link
// budgets for one period; UniformLoadModel (external traffic on a
// non-dedicated Grid) and DiurnalModel (desktop grids gaining capacity
// at night) generate one per epoch. Throttle is the static baseline: a
// stale allocation as the perturbed network delivers it, so the value
// of re-optimizing can be measured.
//
// The loop that re-optimizes is not here. The scheduling service's
// epoch commit applies a Perturbation to the session's platform,
// injects it into the session's core.Model (core.Model.Inject) and
// re-solves warm from the carried basis; examples/adaptive runs the
// same steps offline against Throttle.
package adapt

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/platform"
)

// Perturbation rescales a platform's capacities for one epoch.
type Perturbation struct {
	// GatewayFactor[k] scales cluster k's gateway capacity; nil means
	// no change. Values must be in (0, +inf).
	GatewayFactor []float64
	// SpeedFactor[k] scales cluster k's computing speed; nil means no
	// change.
	SpeedFactor []float64
	// LinkFactor[li] scales backbone link li's max-connect budget;
	// nil means no change. Budgets are whole connection counts, so
	// the scaled budget is floored back to an integer — factors in
	// (0, 1] model external connections stolen from the backbone, and
	// the integrality keeps LPRR's round-up safety argument intact.
	LinkFactor []float64
}

// Apply returns a copy of the platform with the perturbation applied.
func (p Perturbation) Apply(pl *platform.Platform) (*platform.Platform, error) {
	out := pl.Clone()
	if p.GatewayFactor != nil {
		if len(p.GatewayFactor) != pl.K() {
			return nil, fmt.Errorf("adapt: %d gateway factors for %d clusters", len(p.GatewayFactor), pl.K())
		}
		for k, f := range p.GatewayFactor {
			if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("adapt: gateway factor %d = %g invalid", k, f)
			}
			out.Clusters[k].Gateway *= f
		}
	}
	if p.SpeedFactor != nil {
		if len(p.SpeedFactor) != pl.K() {
			return nil, fmt.Errorf("adapt: %d speed factors for %d clusters", len(p.SpeedFactor), pl.K())
		}
		for k, f := range p.SpeedFactor {
			if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("adapt: speed factor %d = %g invalid", k, f)
			}
			out.Clusters[k].Speed *= f
		}
	}
	if p.LinkFactor != nil {
		if len(p.LinkFactor) != len(pl.Links) {
			return nil, fmt.Errorf("adapt: %d link factors for %d links", len(p.LinkFactor), len(pl.Links))
		}
		for li, f := range p.LinkFactor {
			if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("adapt: link factor %d = %g invalid", li, f)
			}
			// +1e-9 absorbs roundoff so a factor of exactly 1 (or a
			// product landing on an integer) keeps the full budget.
			budget := math.Floor(f*float64(pl.Links[li].MaxConnect) + 1e-9)
			if budget > platform.MaxConnectCeiling {
				return nil, fmt.Errorf("adapt: link factor %d = %g gives max-connect %g, above the ceiling %d", li, f, budget, platform.MaxConnectCeiling)
			}
			out.Links[li].MaxConnect = int(budget)
		}
	}
	return out, nil
}

// Model generates one Perturbation per epoch.
type Model interface {
	// Epoch returns the perturbation for epoch e (deterministic for a
	// given model instance and epoch index).
	Epoch(e int) Perturbation
}

// UniformLoadModel squeezes every gateway by an i.i.d. uniform factor
// in [Min, Max] each epoch — external traffic on a non-dedicated Grid
// (the scenario of examples/adaptive). With LinkMax > 0 it
// additionally squeezes every backbone link budget by an i.i.d.
// uniform factor in [LinkMin, LinkMax] (Links must then carry the
// platform's link count): external connections competing for the
// max-connect slots.
type UniformLoadModel struct {
	K        int
	Min, Max float64
	Seed     int64

	// Link-budget modulation, off when LinkMax == 0.
	Links            int
	LinkMin, LinkMax float64
}

// Epoch implements Model. Each epoch draws from an rng seeded by
// (Seed, e) so epochs are independent and reproducible.
func (m UniformLoadModel) Epoch(e int) Perturbation {
	rng := rand.New(rand.NewSource(m.Seed + int64(e)*1000003))
	f := make([]float64, m.K)
	for k := range f {
		f[k] = m.Min + (m.Max-m.Min)*rng.Float64()
	}
	p := Perturbation{GatewayFactor: f}
	if m.LinkMax > 0 {
		lf := make([]float64, m.Links)
		for li := range lf {
			lf[li] = m.LinkMin + (m.LinkMax-m.LinkMin)*rng.Float64()
		}
		p.LinkFactor = lf
	}
	return p
}

// DiurnalModel modulates every cluster's speed sinusoidally with the
// given period (in epochs) between Min and Max of nominal — desktop
// grids gaining capacity at night. Period must be >= 1: Epoch divides
// by it, and a non-positive period would otherwise produce NaN speed
// factors, so Epoch panics on one.
//
// With LinkMax > 0 the same sinusoid also modulates every backbone
// link budget between LinkMin and LinkMax of nominal (Links must
// then carry the platform's link count) — daytime backbone
// congestion eating into the max-connect slots in phase with the
// compute dip.
type DiurnalModel struct {
	K        int
	Min, Max float64
	Period   int

	// Link-budget modulation, off when LinkMax == 0.
	Links            int
	LinkMin, LinkMax float64
}

// Epoch implements Model. It panics if Period < 1 (see the type
// documentation).
func (m DiurnalModel) Epoch(e int) Perturbation {
	if m.Period < 1 {
		panic(fmt.Sprintf("adapt: DiurnalModel.Period = %d, want >= 1", m.Period))
	}
	phase := 2 * math.Pi * float64(e) / float64(m.Period)
	wave := 0.5 + 0.5*math.Sin(phase)
	v := m.Min + (m.Max-m.Min)*wave
	f := make([]float64, m.K)
	for k := range f {
		f[k] = v
	}
	p := Perturbation{SpeedFactor: f}
	if m.LinkMax > 0 {
		lv := m.LinkMin + (m.LinkMax-m.LinkMin)*wave
		lf := make([]float64, m.Links)
		for li := range lf {
			lf[li] = lv
		}
		p.LinkFactor = lf
	}
	return p
}

// Throttle evaluates a stale allocation on a (possibly degraded)
// platform: connections on an over-budget backbone link are dropped
// until the budget fits, remote transfers through an over-subscribed
// gateway are scaled by the gateway's overload factor, remote work
// beyond a shrunken route capacity is clipped to β·bw, and
// computation beyond a shrunken speed is clipped proportionally. The
// result is a valid allocation for the new platform (within
// tolerance), representing what a schedule that is not re-optimized
// actually delivers.
func Throttle(pr *core.Problem, a *core.Allocation) *core.Allocation {
	K := pr.K()
	pl := pr.Platform
	out := a.Clone()
	// Link-budget overloads: drop whole connections (deterministic
	// row-major order) until every link fits its max-connect budget;
	// the route-capacity clip below then shrinks the affected α to
	// the surviving β·bw. One pass over the routes builds the
	// per-link loads and (row-major) crossing lists; shedding then
	// maintains the loads incrementally, which is equivalent to
	// recomputing each link's overload from the current β but costs
	// O(paths) instead of O(links·K²·pathlen).
	if len(pl.Links) > 0 {
		load := make([]int, len(pl.Links))
		crossing := make([][][2]int, len(pl.Links))
		for k := 0; k < K; k++ {
			for l := 0; l < K; l++ {
				if k == l {
					continue
				}
				rt := pl.Route(k, l)
				if !rt.Exists {
					continue
				}
				for _, li := range rt.Links {
					load[li] += out.Beta[k][l]
					crossing[li] = append(crossing[li], [2]int{k, l})
				}
			}
		}
		for li := range pl.Links {
			over := load[li] - pl.Links[li].MaxConnect
			for _, kl := range crossing[li] {
				if over <= 0 {
					break
				}
				k, l := kl[0], kl[1]
				if out.Beta[k][l] <= 0 {
					continue
				}
				d := out.Beta[k][l]
				if d > over {
					d = over
				}
				out.Beta[k][l] -= d
				over -= d
				for _, li2 := range pl.Route(k, l).Links {
					load[li2] -= d
				}
			}
		}
	}
	// Gateway overloads.
	scale := make([]float64, K)
	for k := 0; k < K; k++ {
		traffic := 0.0
		for l := 0; l < K; l++ {
			if l == k {
				continue
			}
			traffic += out.Alpha[k][l] + out.Alpha[l][k]
		}
		// On a validated platform g >= 0, so an overload (traffic > g)
		// implies traffic > 0 and the factor is well defined.
		scale[k] = 1
		if g := pl.Clusters[k].Gateway; traffic > g {
			scale[k] = g / traffic
		}
	}
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if k == l {
				continue
			}
			s := math.Min(scale[k], scale[l])
			out.Alpha[k][l] *= s
			// Route capacity under the new platform.
			bw := pl.RouteBW(k, l)
			if !math.IsInf(bw, 1) {
				if capA := float64(out.Beta[k][l]) * bw; out.Alpha[k][l] > capA {
					out.Alpha[k][l] = capA
				}
			}
		}
	}
	// Speed overloads.
	for l := 0; l < K; l++ {
		in := 0.0
		for k := 0; k < K; k++ {
			in += out.Alpha[k][l]
		}
		if s := pl.Clusters[l].Speed; in > s && in > 0 {
			f := s / in
			for k := 0; k < K; k++ {
				out.Alpha[k][l] *= f
			}
		}
	}
	return out
}
