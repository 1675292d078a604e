package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestAdaptiveSweepExact(t *testing.T) {
	opts := Options{Seed: 1, PlatformsPer: 2, Ks: []int{4}}
	pts, err := AdaptiveSweep(opts, 4, AdaptiveExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	pt := pts[0]
	if pt.K != 4 || pt.Platforms != 2 || pt.Epochs != 4 || pt.Mode != AdaptiveExact {
		t.Fatalf("bad point %+v", pt)
	}
	if pt.ColdSeconds <= 0 || pt.WarmSeconds <= 0 {
		t.Fatalf("non-positive timings %+v", pt)
	}
	// With no budget exhaustion both loops prove the same optima.
	if pt.BudgetHits == 0 && !(pt.MaxObjDiff <= 1e-9) {
		t.Fatalf("warm-cold objective gap %g", pt.MaxObjDiff)
	}
	table := RenderAdaptiveTable(pts)
	if !strings.Contains(table, "speedup") || !strings.Contains(table, "BnB") {
		t.Fatalf("bad table:\n%s", table)
	}
	csv := RenderAdaptiveCSV(pts)
	if !strings.HasPrefix(csv, "k,platforms,epochs,mode,") {
		t.Fatalf("bad csv:\n%s", csv)
	}
}

func TestAdaptiveSweepLPRG(t *testing.T) {
	opts := Options{Seed: 1, PlatformsPer: 1, Ks: []int{6}}
	pts, err := AdaptiveSweep(opts, 4, AdaptiveLPRG)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Mode != AdaptiveLPRG || pts[0].ColdSeconds <= 0 || pts[0].WarmSeconds <= 0 {
		t.Fatalf("bad point %+v", pts[0])
	}
	if !strings.Contains(RenderAdaptiveTable(pts), "LPRG") {
		t.Fatal("table missing mode")
	}
}

func TestAdaptiveSweepErrors(t *testing.T) {
	if _, err := AdaptiveSweep(Options{Ks: []int{4}, PlatformsPer: 1}, 0, AdaptiveExact); err == nil {
		t.Fatal("zero epochs must fail")
	}
	if _, err := AdaptiveSweep(Options{Ks: []int{4}, PlatformsPer: 1}, 2, AdaptiveMode(99)); err == nil {
		t.Fatal("unknown mode must fail")
	}
}

// TestAdaptivePointJSON pins the machine-readable BENCH_E*.json
// surface: NaN MaxObjDiff (LPRG rows) must serialize as null instead
// of breaking the encoder, and the mode must appear by name.
func TestAdaptivePointJSON(t *testing.T) {
	opts := Options{Seed: 1, PlatformsPer: 1, Ks: []int{4}}
	pts, err := AdaptiveSweep(opts, 2, AdaptiveLPRG)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pts)
	if err != nil {
		t.Fatalf("LPRG adaptive points must marshal (NaN handling): %v", err)
	}
	s := string(data)
	if !strings.Contains(s, `"MaxObjDiff":null`) {
		t.Fatalf("NaN MaxObjDiff should marshal as null: %s", s)
	}
	if !strings.Contains(s, `"Mode":"LPRG"`) {
		t.Fatalf("mode should marshal by name: %s", s)
	}
	if !strings.Contains(s, `"WarmPivots":`) {
		t.Fatalf("solver stats missing from JSON: %s", s)
	}
}
