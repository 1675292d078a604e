// Package dlt implements the classical divisible load theory results
// the paper's platform model is built on (§2): a cluster is a
// star-shaped (or tree-shaped) network behind its front-end, and "it
// is known that C^k_master and the leaf processors are together
// equivalent to a single processor whose speed s_k can be determined
// by classical formulas from divisible load theory" (refs [30, 6, 4]
// of the paper). This package provides those formulas:
//
//   - the steady-state star and tree throughput (Banino et al.,
//     ref [4]): the equivalent speed used by this paper's
//     steady-state model, computed by the fractional-knapsack
//     closed form;
//   - recursive tree collapsing, which reduces any tree-of-clusters
//     institution to the single (speed, gateway) pair the platform
//     model needs.
package dlt

import (
	"fmt"
	"math"
	"sort"
)

// Worker is one slave processor of a star network: it computes Speed
// load units per time unit and its private link from the master
// carries LinkBW load units per time unit.
type Worker struct {
	Speed  float64
	LinkBW float64
}

// Star is a single-level master/worker platform. The master holds the
// load, computes at MasterSpeed (0 for a pure source), and serves its
// workers through a one-port serial interface: it communicates with
// one worker at a time.
type Star struct {
	MasterSpeed float64
	Workers     []Worker
}

// Validate checks parameter sanity.
func (s *Star) Validate() error {
	if s.MasterSpeed < 0 || math.IsNaN(s.MasterSpeed) {
		return fmt.Errorf("dlt: master speed %g invalid", s.MasterSpeed)
	}
	for i, w := range s.Workers {
		if w.Speed < 0 || math.IsNaN(w.Speed) {
			return fmt.Errorf("dlt: worker %d speed %g invalid", i, w.Speed)
		}
		if w.LinkBW <= 0 || math.IsNaN(w.LinkBW) {
			return fmt.Errorf("dlt: worker %d link bandwidth %g invalid", i, w.LinkBW)
		}
	}
	return nil
}

// SteadyStateThroughput returns the maximum load per time unit the
// star can absorb in steady state under the one-port model — the
// equivalent speed s_k of the paper's §2 (ref [4]). The program is
//
//	maximize α_0 + Σ α_i
//	s.t. α_0 ≤ MasterSpeed, α_i ≤ s_i, Σ α_i/b_i ≤ 1,
//
// a fractional knapsack whose optimum serves workers by decreasing
// link bandwidth: a unit of one-port time spent on worker i yields
// b_i load, so fast links are saturated first (up to each worker's
// speed).
func (s *Star) SteadyStateThroughput() (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	order := make([]int, len(s.Workers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.Workers[order[a]].LinkBW > s.Workers[order[b]].LinkBW
	})
	total := s.MasterSpeed
	port := 1.0 // one-port time budget per time unit
	for _, i := range order {
		if port <= 0 {
			break
		}
		w := s.Workers[i]
		// Serving worker i at full speed costs s_i/b_i port time.
		need := w.Speed / w.LinkBW
		if need <= port {
			total += w.Speed
			port -= need
		} else {
			total += port * w.LinkBW
			port = 0
		}
	}
	return total, nil
}

// Tree is a tree-of-clusters institution: a node computes at Speed
// and serves each child subtree through a dedicated link, all behind
// the node's one-port interface.
type Tree struct {
	Speed    float64
	Children []TreeEdge
}

// TreeEdge connects a node to a child subtree through a link of
// bandwidth BW.
type TreeEdge struct {
	BW    float64
	Child *Tree
}

// EquivalentSpeed collapses the tree bottom-up into the single
// equivalent processor speed of the paper's §2: every child subtree
// is first reduced to its own steady-state throughput, then the node
// is treated as a star over those equivalent workers (ref [6, 5, 7]:
// "a tree topology is equivalent to a single processor").
func (t *Tree) EquivalentSpeed() (float64, error) {
	star := Star{MasterSpeed: t.Speed}
	for i, e := range t.Children {
		if e.Child == nil {
			return 0, fmt.Errorf("dlt: tree edge %d has nil child", i)
		}
		child, err := e.Child.EquivalentSpeed()
		if err != nil {
			return 0, err
		}
		star.Workers = append(star.Workers, Worker{Speed: child, LinkBW: e.BW})
	}
	return star.SteadyStateThroughput()
}
