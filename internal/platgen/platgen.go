// Package platgen generates random platforms following the
// experimental setup of the paper (§6, Table 1): K clusters, each on
// its own router; a backbone link between any two routers with
// probability `connectivity`; and per-resource parameters (gateway
// capacity g, per-connection backbone bandwidth bw, connection budget
// maxcon) sampled uniformly from mean·(1±heterogeneity). Computing
// speeds are fixed at 100, as in the paper ("since only relative
// values are meaningful in a periodic schedule, we fix the computing
// speed at 100").
package platgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/platform"
)

// Params are the Table 1 knobs of one platform configuration.
type Params struct {
	K             int     // number of clusters (= applications)
	Connectivity  float64 // probability that any two clusters are connected
	Heterogeneity float64 // relative spread of g, bw, maxcon around their means
	MeanG         float64 // mean gateway capacity
	MeanBW        float64 // mean per-connection backbone bandwidth
	MeanMaxCon    float64 // mean per-link connection budget
}

// Speed is the fixed cluster computing speed used throughout the
// paper's experiments.
const Speed = 100.0

// Validate checks that the parameters are finite and in their
// meaningful ranges, and that no sampled connection budget can exceed
// platform.MaxConnectCeiling.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("platgen: K = %d, want >= 1", p.K)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"connectivity", p.Connectivity}, {"heterogeneity", p.Heterogeneity},
		{"mean g", p.MeanG}, {"mean bw", p.MeanBW}, {"mean maxcon", p.MeanMaxCon},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("platgen: %s = %g, want a finite number", f.name, f.v)
		}
	}
	if p.Connectivity < 0 || p.Connectivity > 1 {
		return fmt.Errorf("platgen: connectivity = %g, want in [0,1]", p.Connectivity)
	}
	if p.Heterogeneity < 0 || p.Heterogeneity >= 1 {
		return fmt.Errorf("platgen: heterogeneity = %g, want in [0,1)", p.Heterogeneity)
	}
	if p.MeanG <= 0 || p.MeanBW <= 0 || p.MeanMaxCon <= 0 {
		return fmt.Errorf("platgen: means must be positive (g=%g bw=%g maxcon=%g)", p.MeanG, p.MeanBW, p.MeanMaxCon)
	}
	if top := p.MeanMaxCon * (1 + p.Heterogeneity); top > platform.MaxConnectCeiling {
		return fmt.Errorf("platgen: maxcon %g·(1+%g) = %g exceeds the link budget ceiling %d", p.MeanMaxCon, p.Heterogeneity, top, platform.MaxConnectCeiling)
	}
	return nil
}

// sample draws uniformly from mean·(1−het) to mean·(1+het).
func sample(rng *rand.Rand, mean, het float64) float64 {
	return mean * (1 - het + 2*het*rng.Float64())
}

// Generate builds one random platform from the parameters, drawing
// all randomness from rng (deterministic for a given seed). The
// routing table is computed before returning. Connection budgets are
// rounded to the nearest integer and floored at 1, keeping
// max-connect integral (required for the LPRR feasibility guarantee,
// see DESIGN.md "Heuristics (§5)").
func Generate(p Params, rng *rand.Rand) (*platform.Platform, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pl := &platform.Platform{Routers: p.K}
	for k := 0; k < p.K; k++ {
		pl.Clusters = append(pl.Clusters, platform.Cluster{
			Name:    fmt.Sprintf("C%d", k),
			Speed:   Speed,
			Gateway: sample(rng, p.MeanG, p.Heterogeneity),
			Router:  k,
		})
	}
	for i := 0; i < p.K; i++ {
		for j := i + 1; j < p.K; j++ {
			if rng.Float64() >= p.Connectivity {
				continue
			}
			mc := int(math.Round(sample(rng, p.MeanMaxCon, p.Heterogeneity)))
			if mc < 1 {
				mc = 1
			}
			pl.Links = append(pl.Links, platform.Link{
				U:          i,
				V:          j,
				BW:         sample(rng, p.MeanBW, p.Heterogeneity),
				MaxConnect: mc,
			})
		}
	}
	if err := pl.ComputeRoutes(); err != nil {
		return nil, err
	}
	return pl, nil
}

// The axes of the paper's Table 1, K outermost:
//
//	K             5, 15, ..., 95
//	connectivity  0.1, 0.2, ..., 0.8
//	heterogeneity 0.2, 0.4, 0.6, 0.8
//	mean g        50, 250, 350, 450
//	mean bw       10, 20, ..., 90
//	mean maxcon   5, 15, ..., 95
//
// The paper instantiated about 10 random platforms per grid point, for
// a total of 269,835 configurations; callers draw from the grid with
// Sample (see internal/experiments).
var (
	table1K    = []int{5, 15, 25, 35, 45, 55, 65, 75, 85, 95}
	table1Conn = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	table1Het  = []float64{0.2, 0.4, 0.6, 0.8}
	table1G    = []float64{50, 250, 350, 450}
	table1BW   = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}
	table1MC   = []float64{5, 15, 25, 35, 45, 55, 65, 75, 85, 95}
)

// table1 is the full grid, built on first use and never written after.
var table1 = sync.OnceValue(func() []Params {
	grid := make([]Params, 0, len(table1K)*len(table1Conn)*len(table1Het)*len(table1G)*len(table1BW)*len(table1MC))
	for _, k := range table1K {
		for _, c := range table1Conn {
			for _, h := range table1Het {
				for _, g := range table1G {
					for _, b := range table1BW {
						for _, m := range table1MC {
							grid = append(grid, Params{K: k, Connectivity: c, Heterogeneity: h, MeanG: g, MeanBW: b, MeanMaxCon: m})
						}
					}
				}
			}
		}
	}
	return grid
})

// Sample draws one Table 1 point with K = k, uniformly (one
// rng.Intn, in grid order) among those keep accepts; nil keeps all.
// At a K that Table 1 does not list, the candidates are the grid's
// points at any one K with K replaced by k: the grid is a full
// product, so that is its own distribution at k. It is an error if
// keep accepts no candidate.
func Sample(k int, rng *rand.Rand, keep func(Params) bool) (Params, error) {
	grid := table1()
	n := len(grid) / len(table1K)
	cands := grid[:n]
	if i := slices.Index(table1K, k); i >= 0 {
		cands = grid[i*n : (i+1)*n]
	}
	if keep != nil {
		var kept []Params
		for _, p := range cands {
			p.K = k
			if keep(p) {
				kept = append(kept, p)
			}
		}
		cands = kept
	}
	if len(cands) == 0 {
		return Params{}, fmt.Errorf("platgen: no Table 1 point at K=%d passes the filter", k)
	}
	p := cands[rng.Intn(len(cands))]
	p.K = k
	return p, nil
}
