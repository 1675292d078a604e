package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/platgen"
)

// importModel builds the K = 5 model FuzzImportBasis imports into, with
// payoffs that make both objectives network-bound, and applies drift: a
// speed and a gateway cut on one cluster, so the dual has rows to fix.
func importModel(tb testing.TB, obj Objective, drift uint8) *Model {
	tb.Helper()
	pl, err := platgen.Generate(platgen.Params{K: 5, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 150, MeanBW: 10, MeanMaxCon: 5},
		rand.New(rand.NewSource(11)))
	if err != nil {
		tb.Fatal(err)
	}
	pr := NewProblem(pl)
	pr.Payoffs = []float64{1, 2, 3, 1, 2}
	m, err := pr.NewModel(obj)
	if err != nil {
		tb.Fatal(err)
	}
	if drift != 0 {
		k, f := int(drift)%5, 0.2+float64(drift)/255
		if m.SetSpeed(k, pl.Clusters[k].Speed*f) != nil || m.SetGateway(k, pl.Clusters[k].Gateway*f) != nil {
			tb.Fatal("drift refused")
		}
	}
	return m
}

// importBase is the basis a K = 5 model's committed solve leaves: the
// cold optimum, re-solved warm so that it carries exact weights.
func importBase(tb testing.TB, obj Objective) *lp.Basis {
	tb.Helper()
	m := importModel(tb, obj, 0)
	if _, ok, err := m.Solve(nil); !ok || err != nil {
		tb.Fatalf("cold solve: ok %v, %v", ok, err)
	}
	if _, ok, err := m.Solve(m.Basis()); !ok || err != nil {
		tb.Fatalf("warm solve: ok %v, %v", ok, err)
	}
	b := m.Basis()
	if _, _, w := b.View(); w == nil {
		tb.Fatal("the committed basis carries no weights")
	}
	return b
}

// usable is what the solver requires of imported weights before it
// prices with them: one per row, each finite and at least its floor
// (lp's dseFloor, 1e-10).
func usable(w []float64, m int) bool {
	if len(w) != m {
		return false
	}
	for _, g := range w {
		if !(g >= 1e-10) || math.IsInf(g, 1) {
			return false
		}
	}
	return true
}

// FuzzImportBasis imports a basis — the committed one's columns,
// at-upper list and steepest-edge weights, each edited by the input —
// into a drifted K = 5 model on Rebase's footing, as a restored replica's
// commit does, and holds three properties: nothing panics; the bound is
// the cold bound within 1e-9; and weights the solver must not price with
// (short, long, non-finite, zero or negative) never reach its leaving-row
// choice — exact initialization runs instead. The last is read off what
// the solve leaves: a dual that priced with the imported weights
// initialized nothing and carries them out in its basis, where an
// unusable one stays unusable on every row no pivot rewrote.
//
// edits is 3 bytes per basic column replaced (row, then the new column
// as a uint16 less 8, so negative and out-of-range columns occur); upper
// is 2 bytes per at-upper column (uint16 less 4); weights is empty (none)
// or a mode byte: 0 the committed weights, 1 those with 9-byte patches
// (row, float64 bits), 2 the bytes after it as float64s.
func FuzzImportBasis(f *testing.F) {
	base := [2]*lp.Basis{importBase(f, SUM), importBase(f, MAXMIN)}
	_, _, w := base[0].View()
	nan := binary.LittleEndian.AppendUint64([]byte{1, 3}, math.Float64bits(math.NaN()))
	neg := binary.LittleEndian.AppendUint64([]byte{1, 0}, math.Float64bits(-2))
	zero := binary.LittleEndian.AppendUint64([]byte{1, 7}, 0)
	raw := []byte{2}
	for _, g := range w[:len(w)-1] {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(g))
	}
	for _, drift := range []uint8{0, 1, 77, 200} {
		for _, weights := range [][]byte{nil, {0}, nan, neg, zero, raw} {
			f.Add(drift, []byte(nil), []byte(nil), weights)
		}
	}
	f.Add(uint8(33), []byte{0, 2, 0}, []byte{9, 0}, []byte{0})
	f.Add(uint8(34), []byte{1, 0xff, 0xff}, []byte(nil), []byte{0})
	f.Fuzz(func(t *testing.T, drift uint8, edits, upper, weights []byte) {
		obj := Objective(drift >> 7)
		cols, up, w := base[obj].View()
		m := importModel(t, obj, drift&0x7f)
		rows := len(cols)
		cols, up, w = append([]int32(nil), cols...), append([]int32(nil), up...), append([]float64(nil), w...)
		for ; len(edits) >= 3; edits = edits[3:] {
			cols[int(edits[0])%rows] = int32(binary.LittleEndian.Uint16(edits[1:])) - 8
		}
		for ; len(upper) >= 2; upper = upper[2:] {
			up = append(up, int32(binary.LittleEndian.Uint16(upper))-4)
		}
		switch {
		case len(weights) == 0:
			w = nil
		case weights[0]%3 == 1:
			for p := weights[1:]; len(p) >= 9; p = p[9:] {
				w[int(p[0])%rows] = math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
			}
		case weights[0]%3 == 2:
			w = w[:0]
			for p := weights[1:]; len(p) >= 8; p = p[8:] {
				w = append(w, math.Float64frombits(binary.LittleEndian.Uint64(p)))
			}
		}

		cold := importModel(t, obj, drift&0x7f)
		want, wantOK, err := cold.Solve(nil)
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
		before := m.SolverStats()
		m.Rebase()
		got, ok, err := m.Solve(lp.ImportBasis(cols, up, w))
		if err != nil || ok != wantOK || ok && math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("imported: bound %.17g ok %v err %v; cold: %.17g ok %v", got, ok, err, want, wantOK)
		}
		st := m.SolverStats()
		_, _, out := m.Basis().View()
		if out != nil && !usable(out, rows) {
			t.Fatalf("the solve left weights the solver must not price with: %v", out)
		}
		if !usable(w, rows) && out != nil && st.ColdSolves == before.ColdSolves && st.DSEWeightResets == before.DSEWeightResets {
			t.Fatalf("an install carrying unusable weights (%d for %d rows) priced without an exact initialization", len(w), rows)
		}
	})
}
