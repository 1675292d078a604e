package lp_test

import (
	"math"
	"testing"

	. "repro/internal/lp"
)

// fuzzBytes hands out the fuzzer's input one byte at a time, zeros once
// it runs dry, so every input decodes to some program.
type fuzzBytes struct {
	data []byte
	at   int
}

func (b *fuzzBytes) next() int {
	if b.at >= len(b.data) {
		return 0
	}
	v := int(b.data[b.at])
	b.at++
	return v
}

// bounds decodes one variable box: default [0, +Inf), finite upper
// only, positive lower with no upper, or a full box (possibly fixed).
func (b *fuzzBytes) bounds() (lb, ub float64) {
	switch b.next() % 4 {
	case 1:
		return 0, float64(b.next() % 9)
	case 2:
		return float64(b.next() % 4), math.Inf(1)
	case 3:
		lb = float64(b.next() % 4)
		return lb, lb + float64(b.next()%6)
	}
	return 0, math.Inf(1)
}

func (b *fuzzBytes) rhs() float64 { return float64(b.next()%25 - 8) }

// problem decodes a small LP with small integer data: up to 5
// variables with mixed finite/infinite bounds, up to 6 rows of mixed
// <=, ==, >= relations. Nothing makes it feasible or bounded — all
// three verdicts are reachable.
func (b *fuzzBytes) problem() *Problem {
	nv := 1 + b.next()%5
	m := 1 + b.next()%6
	p := New(nv)
	for j := 0; j < nv; j++ {
		p.SetObjective(j, float64(b.next()%9-4))
		lb, ub := b.bounds()
		p.SetVarBounds(j, lb, ub)
	}
	for i := 0; i < m; i++ {
		rel := Rel(b.next() % 3)
		var terms []Term
		for j := 0; j < nv; j++ {
			if c := b.next()%7 - 3; c != 0 {
				terms = append(terms, Term{Var: j, Coeff: float64(c)})
			}
		}
		p.AddConstraint(terms, rel, b.rhs())
	}
	return p
}

// FuzzSolveVsOracle is the differential fuzz of the production solver:
// a byte-driven small bounded LP is solved cold by Revised, then one
// right-hand side and one variable box are mutated and it is re-solved
// warm from the cold basis; both answers must match the lptest oracle
// on verdict and, when optimal, objective to 1e-9. The seed corpus
// (testdata/fuzz/FuzzSolveVsOracle, one file per cold/warm verdict
// pair and warm path) runs as a plain test under `go test`;
// `go test -fuzz=FuzzSolveVsOracle ./internal/lp` explores further.
func FuzzSolveVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data}
		p := b.problem()
		r := NewRevised(p)
		cold, bas, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		checkOracle(t, p, cold, "cold")

		p.SetRHS(b.next()%p.NumConstraints(), b.rhs())
		j := b.next() % p.NumVars()
		lb, ub := b.bounds()
		p.SetVarBounds(j, lb, ub)
		warm, _, err := r.SolveFrom(bas)
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		checkOracle(t, p, warm, "warm")
	})
}
