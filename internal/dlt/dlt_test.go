package dlt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestValidate(t *testing.T) {
	good := &Star{MasterSpeed: 1, Workers: []Worker{{Speed: 1, LinkBW: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Star{
		{MasterSpeed: -1},
		{Workers: []Worker{{Speed: -1, LinkBW: 1}}},
		{Workers: []Worker{{Speed: 1, LinkBW: 0}}},
		{MasterSpeed: math.NaN()},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d must fail", i)
		}
	}
}

func TestSteadyStateClosedForm(t *testing.T) {
	// Master 10; workers (speed, bw): (5, 10) costs 0.5 port-time,
	// (8, 4) costs 2 port-times but only 0.5 remains → 0.5·4 = 2.
	// Total: 10 + 5 + 2 = 17.
	s := &Star{
		MasterSpeed: 10,
		Workers:     []Worker{{Speed: 5, LinkBW: 10}, {Speed: 8, LinkBW: 4}},
	}
	got, err := s.SteadyStateThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 17, 1e-12) {
		t.Fatalf("throughput = %g, want 17", got)
	}
}

// TestSteadyStateMatchesLP cross-checks the fractional-knapsack
// closed form against the LP
//
//	max α_0 + Σ α_i  s.t.  α_0 ≤ s_0, α_i ≤ s_i, Σ α_i/b_i ≤ 1
//
// solved with the simplex of internal/lp, on random stars.
func TestSteadyStateMatchesLP(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Star{MasterSpeed: rng.Float64() * 10}
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			s.Workers = append(s.Workers, Worker{
				Speed:  0.1 + 10*rng.Float64(),
				LinkBW: 0.1 + 10*rng.Float64(),
			})
		}
		closed, err := s.SteadyStateThroughput()
		if err != nil {
			return false
		}
		p := lp.New(n + 1)
		p.SetObjective(0, 1)
		p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}}, lp.LE, s.MasterSpeed)
		var port []lp.Term
		for i, w := range s.Workers {
			p.SetObjective(i+1, 1)
			p.AddConstraint([]lp.Term{{Var: i + 1, Coeff: 1}}, lp.LE, w.Speed)
			port = append(port, lp.Term{Var: i + 1, Coeff: 1 / w.LinkBW})
		}
		p.AddConstraint(port, lp.LE, 1)
		sol, err := p.Solve()
		if err != nil || sol.Status != lp.Optimal {
			return false
		}
		return approx(closed, sol.Objective, 1e-6*(1+sol.Objective))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeEquivalentSpeed(t *testing.T) {
	// Leaf-only "tree" is just its own speed.
	leaf := &Tree{Speed: 7}
	got, err := leaf.EquivalentSpeed()
	if err != nil || got != 7 {
		t.Fatalf("leaf = %g err=%v", got, err)
	}
	// Two-level tree: root speed 10 with one child (speed 5 via bw
	// 10, port cost 0.5) and one grandchild chain: child2 has its own
	// child. Collapse is recursive.
	grand := &Tree{Speed: 6}
	child2 := &Tree{Speed: 2, Children: []TreeEdge{{BW: 3, Child: grand}}}
	// child2 equivalent: 2 + min(6, port 1 × bw 3 limited by 6/3=2
	// port... need = 6/3 = 2 > 1 → 1·3 = 3; total 2+3 = 5.
	c2, err := child2.EquivalentSpeed()
	if err != nil || !approx(c2, 5, 1e-12) {
		t.Fatalf("child2 = %g err=%v", c2, err)
	}
	root := &Tree{Speed: 10, Children: []TreeEdge{
		{BW: 10, Child: &Tree{Speed: 5}},
		{BW: 4, Child: child2},
	}}
	// Root: 10 + serve (5 via 10): cost 0.5 → +5; serve (5 via 4):
	// cost 1.25 > 0.5 remaining → 0.5·4 = 2. Total 17.
	got, err = root.EquivalentSpeed()
	if err != nil || !approx(got, 17, 1e-12) {
		t.Fatalf("root = %g err=%v", got, err)
	}
}

func TestTreeNilChild(t *testing.T) {
	bad := &Tree{Speed: 1, Children: []TreeEdge{{BW: 1, Child: nil}}}
	if _, err := bad.EquivalentSpeed(); err == nil {
		t.Fatal("nil child must fail")
	}
}

// TestPropertyTreeMonotonicity: adding a child never decreases the
// equivalent speed, and the equivalent speed never exceeds the sum of
// all node speeds.
func TestPropertyTreeMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := &Tree{Speed: rng.Float64() * 10}
		sum := root.Speed
		for i := 0; i < 1+rng.Intn(5); i++ {
			child := &Tree{Speed: rng.Float64() * 10}
			sum += child.Speed
			before, err := root.EquivalentSpeed()
			if err != nil {
				return false
			}
			root.Children = append(root.Children, TreeEdge{BW: 0.1 + 5*rng.Float64(), Child: child})
			after, err := root.EquivalentSpeed()
			if err != nil {
				return false
			}
			if after < before-1e-9 {
				return false
			}
		}
		eq, err := root.EquivalentSpeed()
		if err != nil {
			return false
		}
		return eq <= sum+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
