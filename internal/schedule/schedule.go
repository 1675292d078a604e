// Package schedule reconstructs an explicit periodic schedule from a
// valid steady-state allocation, following §3.2 of the paper: the
// rational α_{k,l} are expressed as integer loads over a common
// period T_p, and each period of the steady state (i) computes the
// chunks received during the previous period and (ii) transfers the
// chunks to be computed during the next one. A Schedule is one period's
// loads, which every period repeats; netsim.ExecuteSchedule plays it
// out period by period, the first only communicating and the last only
// computing.
package schedule

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Schedule is the compact description of the periodic schedule: per
// period of length Period (in time units), cluster l computes
// Compute[k][l] integer load units of application A_k, and cluster k
// ships Transfer[k][l] load units to cluster l over Beta[k][l]
// connections.
type Schedule struct {
	Period   float64
	Compute  [][]int64 // Compute[k][l]: load of app k computed at l per period
	Transfer [][]int64 // Transfer[k][l], k != l: load shipped k->l per period
	Beta     [][]int   // connections per route, copied from the allocation
}

// K returns the number of applications.
func (s *Schedule) K() int { return len(s.Compute) }

// AppLoadPerPeriod returns the total integer load of application k
// processed per period (local plus shipped).
func (s *Schedule) AppLoadPerPeriod(k int) int64 {
	var sum int64
	for _, v := range s.Compute[k] {
		sum += v
	}
	return sum
}

// Throughput returns the steady-state load per time unit the schedule
// realizes for application k; it is at most the allocation's
// AppThroughput and converges to it as the denominator grows.
func (s *Schedule) Throughput(k int) float64 {
	return float64(s.AppLoadPerPeriod(k)) / s.Period
}

// Build reconstructs a periodic schedule from a valid allocation
// using a common denominator: the period is T_p = denom time units
// and every α_{k,l} becomes the integer load ⌊α_{k,l}·denom⌋.
// Rounding down preserves every constraint of Equations (7) (they
// are all upper bounds with nonnegative coefficients), which
// Validate re-checks exactly in integer arithmetic.
//
// The loss relative to the allocation's throughput is below K/denom
// per application per time unit; denom = 10^6 makes it negligible.
func Build(pr *core.Problem, a *core.Allocation, denom int64) (*Schedule, error) {
	if denom <= 0 {
		return nil, fmt.Errorf("schedule: denominator %d, want positive", denom)
	}
	if err := pr.CheckAllocation(a, core.DefaultTol); err != nil {
		return nil, fmt.Errorf("schedule: allocation invalid: %w", err)
	}
	K := pr.K()
	s := &Schedule{
		Period:   float64(denom),
		Compute:  make([][]int64, K),
		Transfer: make([][]int64, K),
		Beta:     make([][]int, K),
	}
	for k := 0; k < K; k++ {
		s.Compute[k] = make([]int64, K)
		s.Transfer[k] = make([]int64, K)
		s.Beta[k] = append([]int(nil), a.Beta[k]...)
		for l := 0; l < K; l++ {
			// Snap within the allocation tolerance so that a
			// float-represented exact value (e.g. 29.999999999996)
			// is not needlessly truncated a full unit down.
			units := int64(math.Floor(a.Alpha[k][l]*float64(denom) + 1e-6))
			if units < 0 {
				units = 0
			}
			s.Compute[k][l] = units
			if k != l {
				s.Transfer[k][l] = units
			}
		}
	}
	if err := s.Validate(pr); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate re-checks Equations (7) for the integer schedule against
// the platform, in exact integer/float arithmetic with no tolerance
// on the integer side: per period, cluster speeds (7b), gateway
// capacities (7c), connection budgets (7d) and per-route bandwidth
// (7e) must all hold.
func (s *Schedule) Validate(pr *core.Problem) error {
	K := pr.K()
	if s.K() != K {
		return fmt.Errorf("schedule: K mismatch: %d vs %d", s.K(), K)
	}
	pl := pr.Platform
	tp := s.Period
	// (7b)
	for l := 0; l < K; l++ {
		var in int64
		for k := 0; k < K; k++ {
			if s.Compute[k][l] < 0 {
				return fmt.Errorf("schedule: negative compute load at (%d,%d)", k, l)
			}
			in += s.Compute[k][l]
		}
		if float64(in) > pl.Clusters[l].Speed*tp*(1+1e-12) {
			return fmt.Errorf("schedule: cluster %d overloaded: %d load units in a period of %g at speed %g", l, in, tp, pl.Clusters[l].Speed)
		}
	}
	// (7c)
	for k := 0; k < K; k++ {
		var traffic int64
		for l := 0; l < K; l++ {
			if l == k {
				continue
			}
			traffic += s.Transfer[k][l] + s.Transfer[l][k]
		}
		if float64(traffic) > pl.Clusters[k].Gateway*tp*(1+1e-12) {
			return fmt.Errorf("schedule: gateway %d overloaded: %d units per period of %g at capacity %g", k, traffic, tp, pl.Clusters[k].Gateway)
		}
	}
	// (7d)
	used := make([]int, len(pl.Links))
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if k == l || s.Beta[k][l] == 0 {
				continue
			}
			rt := pl.Route(k, l)
			if !rt.Exists {
				return fmt.Errorf("schedule: β on nonexistent route (%d,%d)", k, l)
			}
			for _, li := range rt.Links {
				used[li] += s.Beta[k][l]
			}
		}
	}
	for li, u := range used {
		if u > pl.Links[li].MaxConnect {
			return fmt.Errorf("schedule: link %d carries %d connections, max %d", li, u, pl.Links[li].MaxConnect)
		}
	}
	// (7e)
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if k == l || s.Transfer[k][l] == 0 {
				continue
			}
			bw := pl.RouteBW(k, l)
			if math.IsInf(bw, 1) {
				continue
			}
			if float64(s.Transfer[k][l]) > float64(s.Beta[k][l])*bw*tp*(1+1e-12) {
				return fmt.Errorf("schedule: route (%d,%d) ships %d units per period, capacity %g", k, l, s.Transfer[k][l], float64(s.Beta[k][l])*bw*tp)
			}
		}
	}
	return nil
}
