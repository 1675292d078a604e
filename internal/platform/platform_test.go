package platform

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// linear3 builds a 3-cluster platform on a line of routers
// 0 -1- 1 -2- 2 with per-link (bw, maxConnect) as given.
func linear3(bw1, bw2 float64, mc1, mc2 int) *Platform {
	p := &Platform{
		Routers: 3,
		Links: []Link{
			{U: 0, V: 1, BW: bw1, MaxConnect: mc1},
			{U: 1, V: 2, BW: bw2, MaxConnect: mc2},
		},
		Clusters: []Cluster{
			{Name: "c0", Speed: 100, Gateway: 50, Router: 0},
			{Name: "c1", Speed: 100, Gateway: 50, Router: 1},
			{Name: "c2", Speed: 100, Gateway: 50, Router: 2},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		panic(err)
	}
	return p
}

func TestValidateOK(t *testing.T) {
	p := linear3(10, 20, 3, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Platform)
		want string
	}{
		{"negative routers", func(p *Platform) { p.Routers = -1 }, "router count"},
		{"link out of range", func(p *Platform) { p.Links[0].V = 9 }, "out of range"},
		{"zero bandwidth", func(p *Platform) { p.Links[0].BW = 0 }, "bandwidth"},
		{"negative maxconnect", func(p *Platform) { p.Links[0].MaxConnect = -1 }, "max-connect"},
		{"maxconnect above ceiling", func(p *Platform) { p.Links[0].MaxConnect = MaxConnectCeiling + 1 }, "above the ceiling"},
		{"cluster router", func(p *Platform) { p.Clusters[0].Router = 5 }, "router 5"},
		{"negative speed", func(p *Platform) { p.Clusters[0].Speed = -1 }, "speed"},
		{"NaN speed", func(p *Platform) { p.Clusters[0].Speed = math.NaN() }, "speed"},
		{"infinite speed", func(p *Platform) { p.Clusters[0].Speed = math.Inf(1) }, "speed"},
		{"NaN gateway", func(p *Platform) { p.Clusters[0].Gateway = math.NaN() }, "gateway"},
		{"negative gateway", func(p *Platform) { p.Clusters[0].Gateway = -3 }, "gateway"},
		{"infinite gateway", func(p *Platform) { p.Clusters[0].Gateway = math.Inf(1) }, "gateway"},
		{"NaN bandwidth", func(p *Platform) { p.Links[0].BW = math.NaN() }, "bandwidth"},
		{"negative link endpoint", func(p *Platform) { p.Links[0].U = -1 }, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := linear3(10, 20, 3, 3)
			tc.mut(p)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestRoutesOnLine(t *testing.T) {
	p := linear3(10, 20, 3, 3)
	r := p.Route(0, 2)
	if !r.Exists || len(r.Links) != 2 || r.Links[0] != 0 || r.Links[1] != 1 {
		t.Fatalf("route 0->2 = %+v", r)
	}
	if r.MinBW != 10 {
		t.Fatalf("MinBW = %g, want 10 (bottleneck)", r.MinBW)
	}
	if got := p.RouteBW(0, 2); got != 10 {
		t.Fatalf("RouteBW = %g", got)
	}
	// Reverse direction uses the same links.
	r2 := p.Route(2, 0)
	if !r2.Exists || len(r2.Links) != 2 || r2.Links[0] != 1 || r2.Links[1] != 0 {
		t.Fatalf("route 2->0 = %+v", r2)
	}
}

func TestLocalRoute(t *testing.T) {
	p := linear3(10, 20, 3, 3)
	r := p.Route(1, 1)
	if !r.Exists || len(r.Links) != 0 || !math.IsInf(r.MinBW, 1) {
		t.Fatalf("local route = %+v", r)
	}
}

func TestSameRouterClusters(t *testing.T) {
	p := &Platform{
		Routers: 1,
		Clusters: []Cluster{
			{Name: "a", Speed: 1, Gateway: 1, Router: 0},
			{Name: "b", Speed: 1, Gateway: 1, Router: 0},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	r := p.Route(0, 1)
	if !r.Exists || len(r.Links) != 0 || !math.IsInf(r.MinBW, 1) {
		t.Fatalf("same-router route = %+v", r)
	}
}

func TestDisconnectedRoute(t *testing.T) {
	p := &Platform{
		Routers: 2,
		Clusters: []Cluster{
			{Name: "a", Speed: 1, Gateway: 1, Router: 0},
			{Name: "b", Speed: 1, Gateway: 1, Router: 1},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	if p.Route(0, 1).Exists {
		t.Fatal("route across disconnected routers must not exist")
	}
	if p.RouteBW(0, 1) != 0 {
		t.Fatal("RouteBW across disconnected routers must be 0")
	}
}

func TestSetRoute(t *testing.T) {
	p := triangle(t)
	// Shortest path uses the direct (1-hop) link.
	if r := p.Route(0, 1); len(r.Links) != 1 || r.Links[0] != 2 || r.MinBW != 1 {
		t.Fatalf("default route = %+v", r)
	}
	// Override with the detour.
	if err := p.SetRoute(0, 1, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if r := p.Route(0, 1); len(r.Links) != 2 || r.MinBW != 5 {
		t.Fatalf("overridden route = %+v", r)
	}
}

func TestSetRouteErrors(t *testing.T) {
	p := linear3(10, 20, 3, 3)
	if err := p.SetRoute(0, 2, []int{1, 0}); err == nil {
		t.Fatal("non-contiguous walk must fail")
	}
	if err := p.SetRoute(0, 2, []int{0}); err == nil {
		t.Fatal("walk ending at wrong router must fail")
	}
	if err := p.SetRoute(0, 0, []int{0}); err == nil {
		t.Fatal("non-empty local route must fail")
	}
	if err := p.SetRoute(0, 9, nil); err == nil {
		t.Fatal("out-of-range cluster must fail")
	}
	if err := p.SetRoute(0, 2, []int{7}); err == nil {
		t.Fatal("out-of-range link must fail")
	}
	var fresh Platform
	if err := fresh.SetRoute(0, 0, nil); err == nil {
		t.Fatal("SetRoute before ComputeRoutes must fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := linear3(10, 20, 3, 4)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.K() != 3 || q.Routers != 3 || len(q.Links) != 2 {
		t.Fatalf("decoded platform = %+v", q)
	}
	if q.Links[1].MaxConnect != 4 || q.Clusters[2].Name != "c2" {
		t.Fatalf("fields lost in round trip: %+v", q)
	}
	// Routing table must be usable immediately after Decode.
	if got := q.RouteBW(0, 2); got != 10 {
		t.Fatalf("RouteBW after decode = %g", got)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode([]byte(`{"routers":-3}`)); err == nil {
		t.Fatal("invalid platform must fail to decode")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("bad JSON must fail to decode")
	}
}

// TestValidateStrict covers the untrusted-description checks layered
// on top of Validate: self-loops and duplicate links are rejected,
// while Validate alone keeps accepting the parallel dedicated links
// programmatic constructions (the NP-hardness reduction) build.
func TestValidateStrict(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Platform)
		want string
	}{
		{"self-loop link", func(p *Platform) { p.Links[1].V = 1 }, "self-loop"},
		{"duplicate link", func(p *Platform) {
			p.Links = append(p.Links, Link{U: 0, V: 1, BW: 5, MaxConnect: 2})
		}, "duplicates link 0"},
		{"duplicate link reversed", func(p *Platform) {
			p.Links = append(p.Links, Link{U: 1, V: 0, BW: 5, MaxConnect: 2})
		}, "duplicates link 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := linear3(10, 20, 3, 3)
			tc.mut(p)
			err := p.ValidateStrict()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ValidateStrict err = %v, want substring %q", err, tc.want)
			}
		})
	}
	// The permissive Validate accepts parallel links.
	p := linear3(10, 20, 3, 3)
	p.Links = append(p.Links, Link{U: 0, V: 1, BW: 5, MaxConnect: 2})
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate must accept parallel links (reduction-style multigraphs): %v", err)
	}
	if err := p.ValidateStrict(); err == nil {
		t.Fatal("ValidateStrict must reject them")
	}
}

// TestDecodeRejectsUntrusted exercises the validation a service
// accepting uploaded platform JSON relies on: hostile numeric values
// and malformed topology must be rejected with clear errors, not
// propagated into a solver.
func TestDecodeRejectsUntrusted(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"negative speed",
			`{"routers":1,"clusters":[{"name":"a","speed":-5,"gateway":1,"router":0}]}`,
			"speed"},
		{"negative gateway",
			`{"routers":1,"clusters":[{"name":"a","speed":5,"gateway":-1,"router":0}]}`,
			"gateway"},
		{"router index out of range",
			`{"routers":2,"clusters":[{"name":"a","speed":5,"gateway":1,"router":2}]}`,
			"out of range"},
		{"negative router index",
			`{"routers":2,"clusters":[{"name":"a","speed":5,"gateway":1,"router":-1}]}`,
			"out of range"},
		{"link endpoint out of range",
			`{"routers":2,"links":[{"u":0,"v":2,"bw":10,"maxConnect":1}],"clusters":[]}`,
			"out of range"},
		{"self-loop link",
			`{"routers":2,"links":[{"u":1,"v":1,"bw":10,"maxConnect":1}],"clusters":[]}`,
			"self-loop"},
		{"duplicate link",
			`{"routers":2,"links":[{"u":0,"v":1,"bw":10,"maxConnect":1},{"u":1,"v":0,"bw":3,"maxConnect":2}],"clusters":[]}`,
			"duplicates"},
		{"zero bandwidth",
			`{"routers":2,"links":[{"u":0,"v":1,"bw":0,"maxConnect":1}],"clusters":[]}`,
			"bandwidth"},
		{"negative max-connect",
			`{"routers":2,"links":[{"u":0,"v":1,"bw":10,"maxConnect":-4}],"clusters":[]}`,
			"max-connect"},
		{"more routers than the clusters and links touch",
			`{"routers":2000000000,"clusters":[{"name":"a","speed":5,"gateway":1,"router":0}]}`,
			"routers"},
		{"one cluster past MaxClusters", clustersJSON(MaxClusters + 1), "129 clusters"},
		{"one router past MaxRouters", routerChainJSON(MaxRouters + 1), "257 routers"},
		{"max-connect above the ceiling",
			`{"routers":2,"links":[{"u":0,"v":1,"bw":10,"maxConnect":4611686018427387904}],"clusters":[]}`,
			"above the ceiling"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.json))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// clustersJSON is a description of k clusters on one router.
func clustersJSON(k int) string {
	var b strings.Builder
	b.WriteString(`{"routers":1,"clusters":[`)
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"c%d","speed":1,"gateway":1,"router":0}`, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// routerChainJSON is a description of one cluster at each end of a
// chain of r routers.
func routerChainJSON(r int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"routers":%d,"links":[`, r)
	for i := 0; i+1 < r; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"u":%d,"v":%d,"bw":1,"maxConnect":1}`, i, i+1)
	}
	fmt.Fprintf(&b, `],"clusters":[{"name":"a","speed":1,"gateway":1,"router":0},{"name":"b","speed":1,"gateway":1,"router":%d}]}`, r-1)
	return b.String()
}

func TestFingerprint(t *testing.T) {
	p := linear3(10, 20, 3, 4)
	fp := p.Fingerprint()
	if len(fp) != 32 {
		t.Fatalf("fingerprint %q, want 32 hex chars", fp)
	}
	if q := p.Clone(); q.Fingerprint() != fp {
		t.Fatal("clone changed the fingerprint")
	}
	// A description round trip through JSON preserves it.
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Fingerprint() != fp {
		t.Fatal("encode/decode round trip changed the fingerprint")
	}
	// Any description change changes it.
	muts := []func(*Platform){
		func(p *Platform) { p.Clusters[0].Speed = 101 },
		func(p *Platform) { p.Clusters[2].Gateway = 51 },
		func(p *Platform) { p.Clusters[1].Name = "other" },
		func(p *Platform) { p.Links[0].BW = 11 },
		func(p *Platform) { p.Links[1].MaxConnect = 5 },
		func(p *Platform) { p.Routers = 4 },
	}
	for i, mut := range muts {
		q := p.Clone()
		mut(q)
		if q.Fingerprint() == fp {
			t.Fatalf("mutation %d did not change the fingerprint", i)
		}
	}
}

func TestClone(t *testing.T) {
	p := linear3(10, 20, 3, 3)
	q := p.Clone()
	q.Clusters[0].Speed = 7
	q.Links[0].BW = 99
	if p.Clusters[0].Speed != 100 || p.Links[0].BW != 10 {
		t.Fatal("clone shares state with original")
	}
	if r := q.Route(0, 2); !r.Exists || r.MinBW != 10 {
		t.Fatalf("clone routing table = %+v", r)
	}
}

// triangle is a triangle of routers with clusters on routers 0 and 2,
// joined by a direct link (index 2) and a two-hop detour (links 0, 1).
func triangle(t *testing.T) *Platform {
	t.Helper()
	p := &Platform{
		Routers: 3,
		Links: []Link{
			{U: 0, V: 1, BW: 5, MaxConnect: 2},
			{U: 1, V: 2, BW: 5, MaxConnect: 2},
			{U: 0, V: 2, BW: 1, MaxConnect: 2},
		},
		Clusters: []Cluster{
			{Name: "a", Speed: 1, Gateway: 1, Router: 0},
			{Name: "b", Speed: 1, Gateway: 1, Router: 2},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCloneRouteEditsStayPrivate: a clone shares its original's routing
// table until either side edits a route; after SetRoute or
// ComputeRoutes on one, the other's Route(k,l) is what it was.
func TestCloneRouteEditsStayPrivate(t *testing.T) {
	direct := func(t *testing.T, who string, p *Platform) {
		t.Helper()
		for _, kl := range [][2]int{{0, 1}, {1, 0}} {
			if r := p.Route(kl[0], kl[1]); !r.Exists || len(r.Links) != 1 || r.Links[0] != 2 || r.MinBW != 1 {
				t.Fatalf("%s: route %v = %+v, want the direct link", who, kl, r)
			}
		}
	}
	edits := []struct {
		name string
		edit func(p *Platform) error
	}{
		{"SetRoute", func(p *Platform) error { return p.SetRoute(0, 1, []int{0, 1}) }},
		{"ComputeRoutes", func(p *Platform) error {
			p.Links[2].U, p.Links[2].V = 0, 1 // no direct link any more
			return p.ComputeRoutes()
		}},
	}
	for _, e := range edits {
		for _, side := range []string{"clone", "original"} {
			t.Run(e.name+" on "+side, func(t *testing.T) {
				p := triangle(t)
				q := p.Clone()
				edited, other := q, p
				if side == "original" {
					edited, other = p, q
				}
				if err := e.edit(edited); err != nil {
					t.Fatal(err)
				}
				if r := edited.Route(0, 1); len(r.Links) != 2 || r.MinBW != 5 {
					t.Fatalf("edited side: route = %+v, want the detour", r)
				}
				direct(t, "other side", other)
			})
		}
	}
}

// ringPlatform is K clusters on a ring of K routers: K² routes, most of
// them multi-hop.
func ringPlatform(K int) *Platform {
	p := &Platform{Routers: K}
	for i := 0; i < K; i++ {
		p.Links = append(p.Links, Link{U: i, V: (i + 1) % K, BW: 10, MaxConnect: 3})
		p.Clusters = append(p.Clusters, Cluster{Name: "c", Speed: 100, Gateway: 50, Router: i})
	}
	if err := p.ComputeRoutes(); err != nil {
		panic(err)
	}
	return p
}

// TestCloneAllocsIndependentOfK is the clock-free guard on Clone's
// cost: it copies the capacities (two slices and the struct) and shares
// the K² routes, so it allocates the same count, at most 3, at K=5 as
// at K=20.
func TestCloneAllocsIndependentOfK(t *testing.T) {
	var sink *Platform
	allocs := func(K int) float64 {
		p := ringPlatform(K)
		return testing.AllocsPerRun(50, func() { sink = p.Clone() })
	}
	small, large := allocs(5), allocs(20)
	if small != large || small > 3 {
		t.Fatalf("Clone allocates %v times at K=5 and %v at K=20, want the same count <= 3", small, large)
	}
	_ = sink
}

func TestResidual(t *testing.T) {
	p := linear3(10, 20, 1, 2)
	r := NewResidual(p)
	if r.Speed[0] != 100 || r.Gateway[1] != 50 || r.MaxConnect[0] != 1 {
		t.Fatalf("residual init = %+v", r)
	}
	if !r.RouteOpen(0, 2) {
		t.Fatal("route 0->2 must be open initially")
	}
	r.OpenConnection(0, 2)
	if r.MaxConnect[0] != 0 || r.MaxConnect[1] != 1 {
		t.Fatalf("after open: %v", r.MaxConnect)
	}
	if r.RouteOpen(0, 2) {
		t.Fatal("route 0->2 must be exhausted (link 0 budget 1)")
	}
	if !r.RouteOpen(1, 2) {
		t.Fatal("route 1->2 only uses link 1 which has one slot left")
	}
	if !r.RouteOpen(1, 1) {
		t.Fatal("local route must always be open")
	}
}

func TestResidualOpenConnectionPanics(t *testing.T) {
	p := linear3(10, 20, 0, 0)
	r := NewResidual(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhausted route")
		}
	}()
	r.OpenConnection(0, 2)
}

func TestRoutePanicsBeforeCompute(t *testing.T) {
	var p Platform
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Route(0, 0)
}
