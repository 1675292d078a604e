package platgen

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestParamsValidate(t *testing.T) {
	good := Params{K: 5, Connectivity: 0.5, Heterogeneity: 0.2, MeanG: 50, MeanBW: 10, MeanMaxCon: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	base := func(mut func(*Params)) Params {
		p := good
		mut(&p)
		return p
	}
	bad := []struct {
		p    Params
		want string
	}{
		{base(func(p *Params) { p.K = 0 }), "K = 0"},
		{base(func(p *Params) { p.Connectivity = 1.5 }), "want in [0,1]"},
		{base(func(p *Params) { p.Heterogeneity = 1 }), "want in [0,1)"},
		{base(func(p *Params) { p.MeanG = 0 }), "positive"},
		{base(func(p *Params) { p.MeanBW = -1 }), "positive"},
		{base(func(p *Params) { p.Connectivity = math.NaN() }), "connectivity = NaN, want a finite number"},
		{base(func(p *Params) { p.Heterogeneity = math.NaN() }), "heterogeneity = NaN, want a finite number"},
		{base(func(p *Params) { p.MeanG = math.Inf(1) }), "mean g = +Inf, want a finite number"},
		{base(func(p *Params) { p.MeanBW = math.NaN() }), "mean bw = NaN, want a finite number"},
		{base(func(p *Params) { p.MeanMaxCon = math.NaN() }), "mean maxcon = NaN, want a finite number"},
		{base(func(p *Params) { p.MeanMaxCon = math.Inf(1) }), "mean maxcon = +Inf, want a finite number"},
		// 3e9·(1+0.2) is above platform.MaxConnectCeiling.
		{base(func(p *Params) { p.MeanMaxCon = 3e9 }), "exceeds the link budget ceiling"},
	}
	for i, tc := range bad {
		if err := tc.p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d (%+v): err = %v, want substring %q", i, tc.p, err, tc.want)
		}
	}
	// The largest mean whose top budget sits at the ceiling still passes.
	edge := base(func(p *Params) { p.MeanMaxCon = platform.MaxConnectCeiling / 1.2 })
	if err := edge.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{K: 10, Connectivity: 0.4, Heterogeneity: 0.4, MeanG: 250, MeanBW: 50, MeanMaxCon: 15}
	a, err := Generate(p, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.Encode()
	db, _ := b.Encode()
	if string(da) != string(db) {
		t.Fatal("same seed must give identical platforms")
	}
	c, err := Generate(p, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	dc, _ := c.Encode()
	if string(da) == string(dc) {
		t.Fatal("different seeds should give different platforms")
	}
}

func TestGenerateStructure(t *testing.T) {
	p := Params{K: 20, Connectivity: 0.5, Heterogeneity: 0.6, MeanG: 250, MeanBW: 50, MeanMaxCon: 15}
	pl, err := Generate(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if pl.K() != 20 || pl.Routers != 20 {
		t.Fatalf("K=%d routers=%d", pl.K(), pl.Routers)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, c := range pl.Clusters {
		if c.Speed != Speed {
			t.Fatalf("cluster %d speed = %g, want %g", k, c.Speed, Speed)
		}
		if c.Router != k {
			t.Fatalf("cluster %d router = %d", k, c.Router)
		}
		lo, hi := p.MeanG*(1-p.Heterogeneity), p.MeanG*(1+p.Heterogeneity)
		if c.Gateway < lo || c.Gateway > hi {
			t.Fatalf("gateway %g outside [%g,%g]", c.Gateway, lo, hi)
		}
	}
	for _, l := range pl.Links {
		lo, hi := p.MeanBW*(1-p.Heterogeneity), p.MeanBW*(1+p.Heterogeneity)
		if l.BW < lo || l.BW > hi {
			t.Fatalf("bw %g outside [%g,%g]", l.BW, lo, hi)
		}
		if l.MaxConnect < 1 {
			t.Fatalf("maxConnect %d < 1", l.MaxConnect)
		}
	}
}

func TestGenerateEdgeCountMatchesConnectivity(t *testing.T) {
	// With K=40 there are 780 pairs; at connectivity 0.3 we expect
	// ~234 links. Allow a generous tolerance band.
	p := Params{K: 40, Connectivity: 0.3, Heterogeneity: 0.2, MeanG: 250, MeanBW: 50, MeanMaxCon: 15}
	total := 0
	const reps = 20
	for seed := int64(0); seed < reps; seed++ {
		pl, err := Generate(p, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		total += len(pl.Links)
	}
	mean := float64(total) / reps
	if mean < 200 || mean > 270 {
		t.Fatalf("mean link count %g, want ~234", mean)
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(Params{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero params must be rejected")
	}
}

func TestTable1GridShape(t *testing.T) {
	grid := table1()
	// 10 K values x 8 connectivity x 4 heterogeneity x 4 g x 9 bw x
	// 10 maxcon = 115,200 settings; the paper's 269,835 platform count
	// is ~10 random platforms per (not exactly divisible because of
	// their sampling; we only need the grid shape).
	want := 10 * 8 * 4 * 4 * 9 * 10
	if len(grid) != want {
		t.Fatalf("grid size = %d, want %d", len(grid), want)
	}
	for _, p := range grid {
		if err := p.Validate(); err != nil {
			t.Fatalf("grid point %+v invalid: %v", p, err)
		}
	}
	// Spot-check extreme corners are present.
	first, last := grid[0], grid[len(grid)-1]
	if first.K != 5 || last.K != 95 {
		t.Fatalf("K corners: %d .. %d", first.K, last.K)
	}
}

// TestSample: a draw has the asked K, passes the filter (which sees
// that K, on the grid or off it), and on the grid is one rng.Intn over
// Table 1's points at K that the filter keeps, in grid order.
func TestSample(t *testing.T) {
	tight := func(p Params) bool { return p.MeanMaxCon <= 5 && p.MeanBW <= 30 && p.K != 25 }
	grid := table1()
	for _, k := range []int{5, 7, 20, 95, 120} {
		var want []Params
		for _, p := range grid {
			if p.K == k && tight(p) {
				want = append(want, p)
			}
		}
		for seed := int64(0); seed < 20; seed++ {
			rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			p, err := Sample(k, rng, tight)
			if err != nil {
				t.Fatal(err)
			}
			if p.K != k || !tight(p) || p.Validate() != nil {
				t.Fatalf("K=%d seed %d: drew %+v", k, seed, p)
			}
			if want != nil && p != want[ref.Intn(len(want))] {
				t.Fatalf("K=%d seed %d: %+v is not the filtered grid's draw", k, seed, p)
			}
		}
	}
	if _, err := Sample(25, rand.New(rand.NewSource(1)), tight); err == nil {
		t.Fatal("a filter that keeps no point at K must fail")
	}
	p, err := Sample(15, rand.New(rand.NewSource(1)), nil)
	if err != nil || p.K != 15 {
		t.Fatalf("unfiltered draw %+v, %v", p, err)
	}
}

// TestPropertySampledValuesInRange: every sampled parameter stays
// within mean*(1±het) for arbitrary valid parameters.
func TestPropertySampledValuesInRange(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Params{
			K:             1 + r.Intn(12),
			Connectivity:  r.Float64(),
			Heterogeneity: 0.8 * r.Float64(),
			MeanG:         1 + r.Float64()*400,
			MeanBW:        1 + r.Float64()*90,
			MeanMaxCon:    1 + r.Float64()*90,
		}
		pl, err := Generate(p, r)
		if err != nil {
			return false
		}
		for _, c := range pl.Clusters {
			if c.Gateway < p.MeanG*(1-p.Heterogeneity)-1e-9 || c.Gateway > p.MeanG*(1+p.Heterogeneity)+1e-9 {
				return false
			}
		}
		for _, l := range pl.Links {
			if l.BW < p.MeanBW*(1-p.Heterogeneity)-1e-9 || l.BW > p.MeanBW*(1+p.Heterogeneity)+1e-9 {
				return false
			}
			if l.MaxConnect < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateK40(b *testing.B) {
	p := Params{K: 40, Connectivity: 0.4, Heterogeneity: 0.4, MeanG: 250, MeanBW: 50, MeanMaxCon: 15}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}
