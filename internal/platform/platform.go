// Package platform implements the paper's target platform model
// (§2): a collection of clusters, each reduced to an equivalent
// single processor of speed s_k behind a fluid-shared gateway link of
// capacity g_k, attached to a router; routers are interconnected by
// backbone links that grant each connection a fixed bandwidth bw(l_i)
// up to max-connect(l_i) simultaneous connections; and a fixed
// routing table L_{k,l} between every pair of clusters.
package platform

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/graph"
)

// Cluster is one institution's cluster, reduced per divisible-load
// theory to an equivalent single processor (paper §2): Speed is the
// cumulated speed s_k, Gateway the capacity g_k of the front-end to
// router link, and Router the index of the backbone router it hangs
// off.
type Cluster struct {
	Name    string  `json:"name"`
	Speed   float64 `json:"speed"`
	Gateway float64 `json:"gateway"`
	Router  int     `json:"router"`
}

// Link is a backbone link between two routers. Every connection
// crossing it receives bandwidth BW (not shared), and at most
// MaxConnect connections may be open on it simultaneously, in both
// directions combined (paper §2).
type Link struct {
	U          int     `json:"u"`
	V          int     `json:"v"`
	BW         float64 `json:"bw"`
	MaxConnect int     `json:"maxConnect"`
}

// MaxConnectCeiling is the largest budget a link may have: Validate
// refuses any above it, and so do the requests that set one. A budget
// that arrives as a float (a what-if's value, an epoch's factor times
// the current budget) beyond the int range converts in an
// implementation-defined way, so those callers refuse it before
// converting. The ceiling also keeps a sum of budgets, such as the
// greedy's step cap, far from overflow; the paper's budgets are tens.
const MaxConnectCeiling = math.MaxInt32

// Route is the fixed routing path between two clusters: the ordered
// backbone link indices of L_{k,l}, plus the derived bottleneck
// bandwidth of a single connection on the path (min over links of
// bw(l_i); +Inf for an empty path, where only gateway constraints
// apply).
type Route struct {
	Exists bool
	Links  []int
	MinBW  float64
}

// Platform is the full §2 model. Build one with the fields below
// (or from JSON via Decode), then call ComputeRoutes (and optionally
// SetRoute) before using the routing accessors.
type Platform struct {
	Routers  int       `json:"routers"`
	Links    []Link    `json:"links"`
	Clusters []Cluster `json:"clusters"`

	routes [][]Route // routes[k][l]; nil until ComputeRoutes
}

// K returns the number of clusters (and applications: the paper has
// one application originating at each cluster).
func (p *Platform) K() int { return len(p.Clusters) }

// Validate checks structural sanity: router indices in range, finite
// nonnegative speeds and capacities, positive finite link bandwidths,
// and link budgets in [0, MaxConnectCeiling]. It deliberately permits parallel links between the same
// router pair — programmatic constructions such as the NP-hardness
// reduction build dedicated parallel links with separate connection
// budgets. ValidateStrict adds the checks appropriate for untrusted
// descriptions.
func (p *Platform) Validate() error {
	if p.Routers < 0 {
		return fmt.Errorf("platform: negative router count %d", p.Routers)
	}
	for i, l := range p.Links {
		if l.U < 0 || l.U >= p.Routers || l.V < 0 || l.V >= p.Routers {
			return fmt.Errorf("platform: link %d endpoints (%d,%d) out of range [0,%d)", i, l.U, l.V, p.Routers)
		}
		if l.BW <= 0 || math.IsNaN(l.BW) || math.IsInf(l.BW, 0) {
			return fmt.Errorf("platform: link %d has invalid bandwidth %g", i, l.BW)
		}
		if l.MaxConnect < 0 {
			return fmt.Errorf("platform: link %d has negative max-connect %d", i, l.MaxConnect)
		}
		if l.MaxConnect > MaxConnectCeiling {
			return fmt.Errorf("platform: link %d has max-connect %d above the ceiling %d", i, l.MaxConnect, MaxConnectCeiling)
		}
	}
	for k, c := range p.Clusters {
		if c.Router < 0 || c.Router >= p.Routers {
			return fmt.Errorf("platform: cluster %d router %d out of range [0,%d)", k, c.Router, p.Routers)
		}
		if c.Speed < 0 || math.IsNaN(c.Speed) || math.IsInf(c.Speed, 0) {
			return fmt.Errorf("platform: cluster %d has invalid speed %g", k, c.Speed)
		}
		if c.Gateway < 0 || math.IsNaN(c.Gateway) || math.IsInf(c.Gateway, 0) {
			return fmt.Errorf("platform: cluster %d has invalid gateway capacity %g", k, c.Gateway)
		}
	}
	return nil
}

// MaxClusters and MaxRouters bound what an untrusted description may
// make a process build (ValidateStrict): routing allocates a K×K route
// table and program (7) a column per route, so a description must not
// name more than the paper's largest platforms (K = routers ≤ 95)
// with room to spare. At the bounds the route table holds at most
// 128² = 16 384 routes of at most 255 links each, so the link rows hold
// at most 16 384 × 255 = 4 177 920 β nonzeros.
const (
	MaxClusters = 128
	MaxRouters  = 256
)

// ValidateStrict is Validate plus the checks appropriate for
// untrusted platform descriptions: more than MaxClusters clusters or
// MaxRouters routers is refused, self-loop links and duplicate
// links between the same router pair are rejected (an uploaded
// description has no business encoding either; hand-built multigraph
// constructions use Validate directly), and so is a router count above
// what the clusters and link endpoints can touch — routing allocates
// per router, so a router nothing touches costs without serving.
// Decode — the boundary where uploaded JSON enters — applies this, so
// services consuming decoded platforms can rely on it.
func (p *Platform) ValidateStrict() error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.K() > MaxClusters || p.Routers > MaxRouters {
		return fmt.Errorf("platform: %d clusters and %d routers, at most %d and %d", p.K(), p.Routers, MaxClusters, MaxRouters)
	}
	if touched := len(p.Clusters) + 2*len(p.Links); p.Routers > touched {
		return fmt.Errorf("platform: %d routers, but the clusters and links touch at most %d", p.Routers, touched)
	}
	seen := make(map[[2]int]int, len(p.Links))
	for i, l := range p.Links {
		if l.U == l.V {
			return fmt.Errorf("platform: link %d is a self-loop on router %d", i, l.U)
		}
		key := [2]int{l.U, l.V}
		if l.V < l.U {
			key = [2]int{l.V, l.U}
		}
		if j, dup := seen[key]; dup {
			return fmt.Errorf("platform: link %d duplicates link %d (routers %d-%d)", i, j, key[0], key[1])
		}
		seen[key] = i
	}
	return nil
}

// BackboneGraph returns the router interconnection graph G_ic = (R,B)
// with unit edge weights (hop-count routing metric). Edge indices
// coincide with Link indices.
func (p *Platform) BackboneGraph() *graph.Graph {
	g := graph.New(p.Routers)
	for _, l := range p.Links {
		g.AddEdge(l.U, l.V, 1)
	}
	return g
}

// ComputeRoutes (re)builds the routing table with shortest-path
// (hop-count) routes between every pair of clusters. Ties are broken
// deterministically by Dijkstra's scan order, so the table is a
// function of the platform description alone. Routes between clusters
// on the same router are empty paths; unreachable pairs get
// Exists=false. The diagonal (k,k) is the empty route (local work
// needs no network).
func (p *Platform) ComputeRoutes() error {
	if err := p.Validate(); err != nil {
		return err
	}
	g := p.BackboneGraph()
	k := p.K()
	p.routes = make([][]Route, k)
	for i := range p.routes {
		p.routes[i] = make([]Route, k)
	}
	for src := 0; src < k; src++ {
		dist, prevEdge, prevNode := g.ShortestPaths(p.Clusters[src].Router)
		for dst := 0; dst < k; dst++ {
			if src == dst {
				p.routes[src][dst] = Route{Exists: true, MinBW: math.Inf(1)}
				continue
			}
			rdst := p.Clusters[dst].Router
			if math.IsInf(dist[rdst], 1) {
				p.routes[src][dst] = Route{Exists: false}
				continue
			}
			var links []int
			for at := rdst; at != p.Clusters[src].Router; at = prevNode[at] {
				links = append(links, prevEdge[at])
			}
			reverse(links)
			p.routes[src][dst] = p.makeRoute(links)
		}
	}
	return nil
}

func (p *Platform) makeRoute(links []int) Route {
	minBW := math.Inf(1)
	for _, li := range links {
		if bw := p.Links[li].BW; bw < minBW {
			minBW = bw
		}
	}
	return Route{Exists: true, Links: links, MinBW: minBW}
}

// SetRoute overrides the routing table entry from cluster k to
// cluster l with an explicit ordered list of backbone link indices.
// The links must form a contiguous walk from k's router to l's
// router. ComputeRoutes must have been called first. This supports
// prescribed routing tables such as the NP-hardness construction
// (paper §4), where routes are fixed by the reduction rather than by
// shortest paths.
func (p *Platform) SetRoute(k, l int, links []int) error {
	if p.routes == nil {
		return fmt.Errorf("platform: SetRoute before ComputeRoutes")
	}
	if k < 0 || k >= p.K() || l < 0 || l >= p.K() {
		return fmt.Errorf("platform: SetRoute(%d,%d) out of range", k, l)
	}
	if k == l && len(links) > 0 {
		return fmt.Errorf("platform: local route (%d,%d) must be empty", k, l)
	}
	at := p.Clusters[k].Router
	for i, li := range links {
		if li < 0 || li >= len(p.Links) {
			return fmt.Errorf("platform: SetRoute(%d,%d): link %d out of range", k, l, li)
		}
		e := p.Links[li]
		switch at {
		case e.U:
			at = e.V
		case e.V:
			at = e.U
		default:
			return fmt.Errorf("platform: SetRoute(%d,%d): link %d (step %d) does not continue the walk at router %d", k, l, li, i, at)
		}
	}
	if at != p.Clusters[l].Router {
		return fmt.Errorf("platform: SetRoute(%d,%d): walk ends at router %d, want %d", k, l, at, p.Clusters[l].Router)
	}
	// Clones share the routing table: copy the spine and row k so the
	// write is invisible to them.
	p.routes = append([][]Route(nil), p.routes...)
	p.routes[k] = append([]Route(nil), p.routes[k]...)
	p.routes[k][l] = p.makeRoute(links)
	return nil
}

// Route returns the routing table entry from cluster k to cluster l.
// It panics if ComputeRoutes has not been called.
func (p *Platform) Route(k, l int) Route {
	if p.routes == nil {
		panic("platform: Route called before ComputeRoutes")
	}
	return p.routes[k][l]
}

// RouteBW returns the bandwidth a single connection obtains on the
// route from k to l (the g_{k,l} of paper §5.1): the minimum bw(l_i)
// over the path, or +Inf for an empty path. Returns 0 when no route
// exists.
func (p *Platform) RouteBW(k, l int) float64 {
	r := p.Route(k, l)
	if !r.Exists {
		return 0
	}
	return r.MinBW
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Clone returns a copy whose capacities (Links, Clusters) are private.
// The routing table is shared, never written in place: ComputeRoutes
// replaces it and SetRoute copies before writing, so neither side sees
// the other's later route edits.
func (p *Platform) Clone() *Platform {
	return &Platform{
		Routers:  p.Routers,
		Links:    append([]Link(nil), p.Links...),
		Clusters: append([]Cluster(nil), p.Clusters...),
		routes:   p.routes,
	}
}

// Encode serializes the platform description (not the derived routing
// table) as JSON.
func (p *Platform) Encode() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Decode parses a platform from JSON, validates it strictly (Decode
// is the boundary where untrusted uploaded descriptions enter, see
// ValidateStrict), and computes its routing table.
func Decode(data []byte) (*Platform, error) {
	var p Platform
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("platform: decode: %w", err)
	}
	if err := p.ValidateStrict(); err != nil {
		return nil, err
	}
	if err := p.ComputeRoutes(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Residual tracks the remaining capacity of every resource while a
// heuristic incrementally allocates work (paper §5.1 step 6): cluster
// speeds, gateway capacities, and per-link connection budgets.
type Residual struct {
	Speed      []float64
	Gateway    []float64
	MaxConnect []int
	p          *Platform
}

// NewResidual captures the full capacities of p.
func NewResidual(p *Platform) *Residual {
	r := &Residual{
		Speed:      make([]float64, p.K()),
		Gateway:    make([]float64, p.K()),
		MaxConnect: make([]int, len(p.Links)),
		p:          p,
	}
	for k, c := range p.Clusters {
		r.Speed[k] = c.Speed
		r.Gateway[k] = c.Gateway
	}
	for i, l := range p.Links {
		r.MaxConnect[i] = l.MaxConnect
	}
	return r
}

// RouteOpen reports whether one more connection can be opened on the
// route from k to l: the route exists and every link on it still has
// a connection slot. Local routes (k==l) are always open.
func (r *Residual) RouteOpen(k, l int) bool {
	rt := r.p.Route(k, l)
	if !rt.Exists {
		return false
	}
	for _, li := range rt.Links {
		if r.MaxConnect[li] < 1 {
			return false
		}
	}
	return true
}

// OpenConnection consumes one connection slot on every link of the
// route from k to l. It panics if the route is not open (callers
// check RouteOpen first).
func (r *Residual) OpenConnection(k, l int) {
	rt := r.p.Route(k, l)
	if !rt.Exists {
		panic(fmt.Sprintf("platform: OpenConnection(%d,%d) on nonexistent route", k, l))
	}
	for _, li := range rt.Links {
		if r.MaxConnect[li] < 1 {
			panic(fmt.Sprintf("platform: OpenConnection(%d,%d): link %d exhausted", k, l, li))
		}
		r.MaxConnect[li]--
	}
}
