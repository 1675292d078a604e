// Package netsim is a flow-level discrete-event network simulator
// implementing exactly the bandwidth-sharing model of the paper's §2:
// gateway (local-area) links are fluid-shared — concurrent flows each
// receive a portion of g_k and the portions sum to at most g_k —
// while backbone links grant every connection a fixed bandwidth, so
// an aggregate transfer using β connections is capped at β·bw_min of
// its route. Flow rates are assigned by max-min fair water-filling
// over the gateways subject to those caps, which is the standard
// fluid approximation of TCP sharing on uncongested backbones.
//
// The paper evaluates its heuristics with a (never released)
// simulator; this package is the substitute substrate (DESIGN.md,
// "§2 simulator substitute") and is used to execute reconstructed
// periodic schedules and confirm that the steady-state throughput
// predicted by the allocation is actually achieved.
package netsim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Flow is one aggregate transfer between two distinct clusters.
type Flow struct {
	Src, Dst int     // cluster indices, Src != Dst
	Size     float64 // remaining volume in load units
	Cap      float64 // aggregate rate ceiling (β·bw_min); +Inf when the route crosses no backbone link
	Limit    float64 // optional pacing rate limit imposed by the scheduler; +Inf when unpaced
	Conns    int     // TCP connections behind the flow (β); 0 means 1. Only used by the RTT model.
}

// rateEps treats rates below this as zero (a flow that can never
// progress).
const rateEps = 1e-12

// Rates computes the max-min fair rate of every flow under the §2
// sharing model: progressive water-filling where all unfrozen flows
// rise together, a flow freezes when it hits its cap (or pacing
// limit), and a gateway freezes all its unfrozen flows when its
// capacity is exhausted.
func Rates(pl *platform.Platform, flows []Flow) ([]float64, error) {
	return waterfill(pl, flows, nil)
}

// waterfill is the weighted progressive-filling core shared by the
// plain §2 model (unit weights) and the RTT-biased TCP model of §7
// (weights ∝ 1/RTT): unfrozen flow i runs at weight_i·level as the
// water level rises, freezes at its ceiling min(Cap, Limit), and all
// unfrozen flows of a gateway freeze when the gateway saturates.
func waterfill(pl *platform.Platform, flows []Flow, weights []float64) ([]float64, error) {
	n := len(flows)
	rates := make([]float64, n)
	if n == 0 {
		return rates, nil
	}
	K := pl.K()
	for i, f := range flows {
		if f.Src < 0 || f.Src >= K || f.Dst < 0 || f.Dst >= K || f.Src == f.Dst {
			return nil, fmt.Errorf("netsim: flow %d endpoints (%d,%d) invalid for K=%d", i, f.Src, f.Dst, K)
		}
		if f.Cap < 0 || f.Limit < 0 {
			return nil, fmt.Errorf("netsim: flow %d has negative cap/limit", i)
		}
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	for i := range flows {
		if w(i) <= 0 || math.IsInf(w(i), 0) || math.IsNaN(w(i)) {
			return nil, fmt.Errorf("netsim: flow %d weight %g invalid", i, w(i))
		}
	}
	frozen := make([]bool, n)
	level := 0.0
	slack := make([]float64, K)
	for k := 0; k < K; k++ {
		slack[k] = pl.Clusters[k].Gateway
	}
	wsum := make([]float64, K) // total weight of unfrozen flows per gateway
	for i, f := range flows {
		wsum[f.Src] += w(i)
		wsum[f.Dst] += w(i)
	}
	ceil := func(f Flow) float64 { return math.Min(f.Cap, f.Limit) }

	// Every iteration freezes at least one flow, so n iterations
	// suffice in exact arithmetic; the cap guards against
	// floating-point pathologies.
	maxIter := 4*n + 64
	for remaining, iter := n, 0; remaining > 0; iter++ {
		if iter >= maxIter {
			return nil, fmt.Errorf("netsim: water-filling failed to converge (%d flows left)", remaining)
		}
		// Next freezing event: the smallest level headroom among flow
		// ceilings (ceil_i/w_i) and gateway saturations. Gateways
		// whose unfrozen weight is floating-point residue are treated
		// as empty, matching the freeze step below — otherwise their
		// 0/ε share would pin delta at 0 forever.
		delta := math.Inf(1)
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if d := ceil(f)/w(i) - level; d < delta {
				delta = d
			}
		}
		for k := 0; k < K; k++ {
			if wsum[k] <= rateEps {
				continue
			}
			if d := slack[k] / wsum[k]; d < delta {
				delta = d
			}
		}
		if delta < 0 {
			delta = 0
		}
		if math.IsInf(delta, 1) {
			return nil, fmt.Errorf("netsim: unbounded flow rates (no gateway or cap constrains some flow)")
		}
		level += delta
		// Charge the rise against every gateway's slack.
		for k := 0; k < K; k++ {
			slack[k] -= delta * wsum[k]
			if slack[k] < 0 {
				slack[k] = 0
			}
		}
		// Freeze flows at their ceiling.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if ceil(f)/w(i)-level <= rateEps {
				frozen[i] = true
				rates[i] = ceil(f)
				wsum[f.Src] -= w(i)
				wsum[f.Dst] -= w(i)
				remaining--
			}
		}
		// Freeze flows on saturated gateways.
		for k := 0; k < K; k++ {
			if wsum[k] <= rateEps || slack[k] > rateEps*(1+pl.Clusters[k].Gateway) {
				continue
			}
			for i, f := range flows {
				if frozen[i] || (f.Src != k && f.Dst != k) {
					continue
				}
				frozen[i] = true
				rates[i] = w(i) * level
				wsum[f.Src] -= w(i)
				wsum[f.Dst] -= w(i)
				remaining--
			}
		}
		// Absorb floating residue so an emptied gateway reads as
		// exactly empty.
		for k := 0; k < K; k++ {
			if wsum[k] < rateEps {
				wsum[k] = 0
			}
		}
	}
	return rates, nil
}

// Completion is the outcome of one simulated flow.
type Completion struct {
	Flow     int
	Finished float64 // absolute completion time
}

// SimulateFlows runs the discrete-event loop: rates are recomputed by
// water-filling whenever a flow completes, and the simulation ends
// when all flows have drained. Returns per-flow completion times and
// the overall makespan. Flows of size 0 complete at time 0. An error
// is returned if some flow can never progress (rate 0 with positive
// size).
func SimulateFlows(pl *platform.Platform, flows []Flow) ([]Completion, float64, error) {
	return simulate(flows, nil, func(cur []Flow) ([]float64, error) { return Rates(pl, cur) })
}

// simulate is the discrete-event loop of both network models. Flow i
// starts moving at start[i] (nil: every flow at 0); whenever a flow
// starts or drains, rates assigns the moving flows their rates, and
// the loop ends when every flow has drained. A flow of size 0
// completes at its start.
func simulate(flows []Flow, start []float64, rates func([]Flow) ([]float64, error)) ([]Completion, float64, error) {
	startOf := func(i int) float64 {
		if start == nil {
			return 0
		}
		return start[i]
	}
	n := len(flows)
	done := make([]Completion, 0, n)
	remaining := make([]float64, n)
	active := make([]int, 0, n)
	for i, f := range flows {
		if f.Size < 0 {
			return nil, 0, fmt.Errorf("netsim: flow %d has negative size", i)
		}
		if f.Size == 0 {
			done = append(done, Completion{Flow: i, Finished: startOf(i)})
			continue
		}
		remaining[i] = f.Size
		active = append(active, i)
	}
	now := 0.0
	moving := make([]int, 0, n) // the active flows that have started, in active's order
	for len(active) > 0 {
		moving = moving[:0]
		nextStart := math.Inf(1)
		for _, i := range active {
			if s := startOf(i); s <= now+1e-15 {
				moving = append(moving, i)
			} else if s < nextStart {
				nextStart = s
			}
		}
		if len(moving) == 0 {
			now = nextStart
			continue
		}
		cur := make([]Flow, len(moving))
		for j, i := range moving {
			cur[j] = flows[i]
			cur[j].Size = remaining[i]
		}
		r, err := rates(cur)
		if err != nil {
			return nil, 0, err
		}
		// Next event: a flow starting, or one draining under the
		// current rates.
		dt := nextStart - now
		for j, i := range moving {
			if r[j] <= rateEps {
				return nil, 0, fmt.Errorf("netsim: flow %d stalled with %g units left", i, remaining[i])
			}
			if d := remaining[i] / r[j]; d < dt {
				dt = d
			}
		}
		now += dt
		next, j := active[:0], 0
		for _, i := range active {
			if j < len(moving) && moving[j] == i {
				remaining[i] -= r[j] * dt
				j++
				if remaining[i] <= 1e-9*(1+flows[i].Size) {
					done = append(done, Completion{Flow: i, Finished: now})
					continue
				}
			}
			next = append(next, i)
		}
		active = next
	}
	makespan := 0.0
	for _, c := range done {
		if c.Finished > makespan {
			makespan = c.Finished
		}
	}
	return done, makespan, nil
}

// Report summarizes the execution of a periodic schedule on the
// simulated network (see ExecuteSchedule).
type Report struct {
	Periods          int
	TransferMakespan float64   // makespan of one period's transfer phase
	ComputeTime      []float64 // per-cluster busy time within one period
	CycleTime        float64   // effective period: max(transfer makespan, compute times)
	FitsPeriod       bool      // CycleTime <= schedule period (within tolerance)
	Predicted        []float64 // per-app steady-state throughput of the schedule
	Achieved         []float64 // per-app measured throughput over the horizon
}

// ExecuteSchedule runs a reconstructed periodic schedule through the
// network simulator. The transfer phase of each period releases one
// aggregate flow per nonzero Transfer[k][l], capped at
// β_{k,l}·bw_min; computation overlaps communication (CPU vs network
// resources), so the effective cycle length is the maximum of the
// transfer makespan and the per-cluster compute times.
//
// Every flow is rate-limited to its steady-state rate size/T_p — the
// scheduler shaping of §3.2 — so the phase provably fits in the
// period. Flows left to their max-min fair share (greedy TCP
// behaviour) usually finish the phase early, but adversarial mixes can
// exceed T_p, which is precisely why the reconstruction prescribes
// pacing.
//
// Achieved throughputs are measured over `periods` cycles including
// the empty first one, so Achieved → Predicted·T_p/CycleTime as the
// horizon grows.
func ExecuteSchedule(pr *core.Problem, s *schedule.Schedule, periods int) (*Report, error) {
	if periods < 2 {
		return nil, fmt.Errorf("netsim: need >= 2 periods, got %d", periods)
	}
	if err := s.Validate(pr); err != nil {
		return nil, err
	}
	K := pr.K()
	pl := pr.Platform

	var flows []Flow
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if k == l || s.Transfer[k][l] == 0 {
				continue
			}
			bw := pl.RouteBW(k, l)
			cp := math.Inf(1)
			if !math.IsInf(bw, 1) {
				cp = float64(s.Beta[k][l]) * bw
			}
			size := float64(s.Transfer[k][l])
			flows = append(flows, Flow{Src: k, Dst: l, Size: size, Cap: cp, Limit: size / s.Period, Conns: s.Beta[k][l]})
		}
	}
	rep := &Report{
		Periods:     periods,
		ComputeTime: make([]float64, K),
		Predicted:   make([]float64, K),
		Achieved:    make([]float64, K),
	}
	if len(flows) > 0 {
		_, makespan, err := SimulateFlows(pl, flows)
		if err != nil {
			return nil, err
		}
		rep.TransferMakespan = makespan
	}
	for l := 0; l < K; l++ {
		var load int64
		for k := 0; k < K; k++ {
			load += s.Compute[k][l]
		}
		if load == 0 {
			continue
		}
		sp := pl.Clusters[l].Speed
		if sp <= 0 {
			return nil, fmt.Errorf("netsim: cluster %d has load %d but zero speed", l, load)
		}
		rep.ComputeTime[l] = float64(load) / sp
	}
	rep.CycleTime = rep.TransferMakespan
	for _, ct := range rep.ComputeTime {
		if ct > rep.CycleTime {
			rep.CycleTime = ct
		}
	}
	if rep.CycleTime < s.Period {
		// The schedule never runs faster than its declared period: the
		// scheduler releases one batch per period.
		rep.CycleTime = s.Period
	}
	rep.FitsPeriod = rep.CycleTime <= s.Period*(1+1e-9)
	horizon := float64(periods) * rep.CycleTime
	for k := 0; k < K; k++ {
		rep.Predicted[k] = s.Throughput(k)
		rep.Achieved[k] = float64(s.AppLoadPerPeriod(k)) * float64(periods-1) / horizon
	}
	return rep, nil
}
