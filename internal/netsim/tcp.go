package netsim

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// TCPOptions enables the refined network model the paper lists as
// future work in §7: "an even more realistic network model, which
// would include link latencies, TCP bandwidth sharing behaviors
// according to round-trip times". Under this model:
//
//   - every backbone link has a one-way latency, and every route an
//     RTT (twice the sum of its link latencies plus a base endpoint
//     latency);
//   - each TCP connection is additionally capped by Window/RTT (the
//     congestion/receive window limit), so an aggregate flow over β
//     connections is capped at β·Window/RTT on top of β·bw_min;
//   - when flows compete on a fluid-shared gateway, their shares are
//     proportional to 1/RTT (the classical TCP throughput bias):
//     instead of rising at a common rate, flow rates rise as
//     weight·level in the water-filling.
type TCPOptions struct {
	// Latency[i] is the one-way latency of backbone link i, in time
	// units. Must have one entry per platform link.
	Latency []float64
	// BaseRTT is the fixed endpoint overhead added to every route's
	// round-trip time (gateway and stack traversal). Must be > 0 so
	// same-router routes have a finite RTT.
	BaseRTT float64
	// Window is the maximum in-flight volume per connection, in load
	// units. Zero disables window capping.
	Window float64
}

// Validate checks the options against a platform.
func (o *TCPOptions) Validate(pl *platform.Platform) error {
	if len(o.Latency) != len(pl.Links) {
		return fmt.Errorf("netsim: %d latencies for %d links", len(o.Latency), len(pl.Links))
	}
	for i, l := range o.Latency {
		if l < 0 || math.IsNaN(l) {
			return fmt.Errorf("netsim: link %d latency %g invalid", i, l)
		}
	}
	if o.BaseRTT <= 0 || math.IsNaN(o.BaseRTT) {
		return fmt.Errorf("netsim: base RTT %g, want > 0", o.BaseRTT)
	}
	if o.Window < 0 {
		return fmt.Errorf("netsim: negative window %g", o.Window)
	}
	return nil
}

// RouteRTT returns the round-trip time of the fixed route from
// cluster k to cluster l: 2·Σ latencies + BaseRTT.
func (o *TCPOptions) RouteRTT(pl *platform.Platform, k, l int) float64 {
	rtt := o.BaseRTT
	rt := pl.Route(k, l)
	if !rt.Exists {
		return math.Inf(1)
	}
	for _, li := range rt.Links {
		rtt += 2 * o.Latency[li]
	}
	return rtt
}

// RatesTCP computes flow rates under the RTT-refined model: each
// flow's ceiling becomes min(Cap, Limit, conns·Window/RTT) and
// gateway sharing is max-min with weights proportional to 1/RTT.
// flows[i].Conns is the number of TCP connections behind flow i
// (defaulting to 1 when 0).
func RatesTCP(pl *platform.Platform, flows []Flow, opt *TCPOptions) ([]float64, error) {
	if err := opt.Validate(pl); err != nil {
		return nil, err
	}
	adjusted := make([]Flow, len(flows))
	weights := make([]float64, len(flows))
	for i, f := range flows {
		rtt := opt.RouteRTT(pl, f.Src, f.Dst)
		if math.IsInf(rtt, 1) {
			return nil, fmt.Errorf("netsim: flow %d has no route (%d,%d)", i, f.Src, f.Dst)
		}
		conns := f.Conns
		if conns <= 0 {
			conns = 1
		}
		if opt.Window > 0 {
			wcap := float64(conns) * opt.Window / rtt
			if wcap < f.Cap {
				f.Cap = wcap
			}
		}
		adjusted[i] = f
		weights[i] = 1 / rtt
	}
	return waterfill(pl, adjusted, weights)
}

// SimulateFlowsTCP is SimulateFlows under the RTT-refined model, with
// every flow additionally paying one RTT of connection start-up
// before its first byte moves.
func SimulateFlowsTCP(pl *platform.Platform, flows []Flow, opt *TCPOptions) ([]Completion, float64, error) {
	if err := opt.Validate(pl); err != nil {
		return nil, 0, err
	}
	start := make([]float64, len(flows)) // the handshake completes at t = RTT
	for i, f := range flows {
		if start[i] = opt.RouteRTT(pl, f.Src, f.Dst); math.IsInf(start[i], 1) {
			return nil, 0, fmt.Errorf("netsim: flow %d has no route (%d,%d)", i, f.Src, f.Dst)
		}
	}
	return simulate(flows, start, func(cur []Flow) ([]float64, error) { return RatesTCP(pl, cur, opt) })
}
