// Package obs is the zero-dependency metrics core behind the schedd
// observability layer: atomic counters and gauges, lock-free
// fixed-bucket latency histograms with exact quantile extraction,
// and a Prometheus text-exposition writer.
//
// Design constraints, in order:
//
//   - No locks and no allocations on the observation path. The warm
//     what-if solve path is pinned at 0 allocs/op by a guard test, and
//     request handlers observe latencies on every call; Observe, Add
//     and Set therefore touch only pre-allocated atomics. Locks exist
//     only on the series-creation path (first use of a label value)
//     and at scrape time.
//
//   - Exact tail quantiles without sampling. Histograms use fixed
//     power-of-two nanosecond buckets, so p50/p90/p99 come from a
//     cumulative bucket walk — bounded relative error from the bucket
//     width (≤ 2x), no reservoir, no decay, no data-dependent memory.
//
//   - Deterministic exposition. Families render in registration
//     order and series within a family in sorted label order, so two
//     scrapes of the same state are byte-identical and diffable.
//
//   - Bounded cardinality. A labeled family accepts at most
//     MaxSeries distinct label-value tuples; later tuples collapse
//     into a single overflow series (label value "overflow") instead
//     of growing without bound under e.g. per-session labels.
//
// The package deliberately implements only what the repo needs —
// counter, gauge, histogram, one flat label dimension per family —
// rather than the full Prometheus data model. ValidateText checks the
// exposition format and is reused by cmd/promcheck in CI.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSeries bounds the number of distinct label values a family will
// track before collapsing further values into the overflow series.
const MaxSeries = 256

// overflowLabel is the label value that absorbs observations once a
// family hits MaxSeries. Its presence in a scrape is itself a signal:
// some label dimension is higher-cardinality than planned.
const overflowLabel = "overflow"

// A Counter is a monotonically increasing cumulative value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d is taken as non-negative; counters never go down).
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Set overwrites the cumulative total. It exists for mirrored
// counters: totals that are authoritatively maintained elsewhere
// (pool hit counts, solver pivot counters) and copied into the
// registry by a scrape-time collector. Mirrored sources are
// themselves monotone, so the exposed series still is.
func (c *Counter) Set(total uint64) { c.v.Store(total) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value (zero before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: bucket i (0-based) covers durations
// ≤ 2^(histMinShift+i) nanoseconds; the last slot is the +Inf
// overflow. The span 1.024µs .. ~34.4s brackets everything from a
// single warm pivot to a pathological cold rebuild.
const (
	histMinShift   = 10 // first finite bound: 2^10 ns = 1.024µs
	histNumFinite  = 25 // last finite bound: 2^34 ns ≈ 17.2s
	histNumBuckets = histNumFinite + 1
)

// A Histogram is a fixed-bucket latency distribution. Observe is
// lock-free and allocation-free: one bits.Len64, two atomic adds.
type Histogram struct {
	buckets [histNumBuckets]atomic.Uint64
	sumNs   atomic.Uint64
}

// bucketIndex maps a nanosecond duration to its bucket.
func bucketIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	// Bounds are inclusive: exactly 2^(histMinShift+i) ns belongs to
	// bucket i, hence the -1 before the shift.
	v := uint64(ns-1) >> histMinShift
	if v == 0 {
		return 0
	}
	idx := bits.Len64(v)
	if idx > histNumBuckets-1 {
		idx = histNumBuckets - 1
	}
	return idx
}

// bucketBound returns the upper bound of finite bucket i in seconds.
func bucketBound(i int) float64 {
	return float64(uint64(1)<<(histMinShift+i)) / 1e9
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	h.buckets[bucketIndex(ns)].Add(1)
	if ns > 0 {
		h.sumNs.Add(uint64(ns))
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// SumSeconds returns the sum of all observed durations in seconds.
func (h *Histogram) SumSeconds() float64 {
	return float64(h.sumNs.Load()) / 1e9
}

// snapshot copies the bucket counts; scrapes and quantile reads work
// from the copy so a torn read across buckets can at worst lag a few
// concurrent observations, never corrupt the cumulative invariant
// (each bucket is summed exactly once).
func (h *Histogram) snapshot() (b [histNumBuckets]uint64, total uint64) {
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	return b, total
}

// Quantile returns the q-quantile (0 < q ≤ 1) in seconds, by
// cumulative walk with linear interpolation inside the landing
// bucket. With power-of-two buckets the answer is exact to within
// the bucket width. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	b, total := h.snapshot()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i := 0; i < histNumBuckets; i++ {
		if b[i] == 0 {
			continue
		}
		prev := cum
		cum += float64(b[i])
		if cum < target {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBound(i - 1)
		}
		hi := bucketBound(i)
		if i == histNumBuckets-1 {
			// Overflow bucket has no finite upper bound; report its
			// lower edge rather than inventing one.
			return lo
		}
		frac := (target - prev) / float64(b[i])
		return lo + frac*(hi-lo)
	}
	return bucketBound(histNumFinite - 1)
}

// metricKind discriminates families for TYPE lines and rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family; exactly one of the
// three pointers is set, matching the family kind.
type series struct {
	labelValue string
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// family is one named metric with an optional single label
// dimension.
type family struct {
	name  string
	help  string
	kind  metricKind
	label string // "" for unlabeled families

	mu     sync.Mutex
	series map[string]*series
}

func (f *family) get(labelValue string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[labelValue]; ok {
		return s
	}
	// At the cap, new label values collapse into the overflow series;
	// the slot for it is reserved so the family never exceeds
	// MaxSeries total.
	if len(f.series) >= MaxSeries-1 {
		labelValue = overflowLabel
		if s, ok := f.series[labelValue]; ok {
			return s
		}
	}
	s := &series{labelValue: labelValue}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = &Histogram{}
	}
	f.series[labelValue] = s
	return s
}

// sorted returns the family's series in sorted label order, so the
// exposition is deterministic.
func (f *family) sorted() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labelValue < out[j].labelValue })
	return out
}

// A Registry owns an ordered set of metric families plus scrape-time
// collectors. All registration methods panic on a name conflict —
// metric registration is program structure, not runtime input.
type Registry struct {
	mu         sync.Mutex
	families   []*family
	byName     map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind metricKind, label string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if label != "" && !validName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, kind: kind, label: label, series: make(map[string]*series)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, "").get("").counter
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, "").get("").gauge
}

// Histogram registers an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram, "").get("").hist
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, label)}
}

// With returns the counter for the given label value, creating it on
// first use (subject to the MaxSeries cap).
func (v *CounterVec) With(labelValue string) *Counter { return v.f.get(labelValue).counter }

// GaugeVec is a gauge family with one label dimension.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, label)}
}

// With returns the gauge for the given label value.
func (v *GaugeVec) With(labelValue string) *Gauge { return v.f.get(labelValue).gauge }

// Reset drops every series of the family. A collector whose label set
// follows something that comes and goes (live sessions) calls it before
// setting the current values, so a departed label's series does not
// report its last value forever. Scrapes are not serialized: a second
// scrape rendering during the rebuild can miss series for that one
// exposition, which is the price of not holding a lock across a slow
// client's write.
func (v *GaugeVec) Reset() {
	v.f.mu.Lock()
	clear(v.f.series)
	v.f.mu.Unlock()
}

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, label)}
}

// With returns the histogram for the given label value.
func (v *HistogramVec) With(labelValue string) *Histogram { return v.f.get(labelValue).hist }

// OnScrape registers a collector: a function run at the top of every
// scrape, before rendering. Collectors mirror totals maintained under
// someone else's lock (pool stats, solver stats, membership views)
// into registry metrics, so those paths keep their own bookkeeping and
// the registry pays the copying cost only when someone looks.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
