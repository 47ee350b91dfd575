package obs

// Fixed-bucket metrics replacing rcserve's 1024-sample sorted latency
// window. A Registry owns metric families; each family is a counter,
// gauge, or histogram, optionally fanned out over label values (a
// "vec"). Values are lock-free atomics on the observe path; the
// registry lock is only taken when a new label combination first
// appears or when the registry is scraped.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// DefBuckets is the default latency histogram layout, in seconds. The
// top bucket is well above rcserve's 2-minute request timeout; +Inf is
// implicit.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 120,
}

// A Registry holds metric families in registration order. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string  // label names, fixed at registration
	buckets []float64 // histogram upper bounds (ascending, no +Inf)

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter/*Gauge/*Histogram/func()float64
	order  []string       // series insertion order
	keys   [][]string     // label values per series, same order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

var nameOK = func(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
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

func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !nameOK(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !nameOK(l) || strings.Contains(l, ":") {
			panic("obs: invalid label name " + l + " on metric " + name)
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram " + name + " buckets not strictly ascending")
		}
	}
	if len(buckets) > 0 && math.IsInf(buckets[len(buckets)-1], +1) {
		panic("obs: histogram " + name + " must not list +Inf explicitly")
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  map[string]any{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric registration: " + name)
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

const keySep = "\xff"

func (f *family) seriesFor(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, keySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	f.series[key] = s
	f.order = append(f.order, key)
	f.keys = append(f.keys, append([]string(nil), values...))
	return s
}

// snapshot returns (label values, series) pairs in insertion order.
func (f *family) snapshot() ([][]string, []any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([][]string, len(f.order))
	copy(keys, f.keys)
	series := make([]any, len(f.order))
	for i, k := range f.order {
		series[i] = f.series[k]
	}
	return keys, series
}

// ---------------------------------------------------------------- counter

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// String renders the value, making Counter usable as an expvar.Var.
func (c *Counter) String() string { return fmt.Sprintf("%d", c.v.Load()) }

// Counter registers (or the family for) a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.seriesFor(nil, func() any { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family fanned out over label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec " + name + " needs at least one label")
	}
	return &CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.seriesFor(values, func() any { return new(Counter) }).(*Counter)
}

// Sum totals the counters whose label values satisfy filter (nil filter
// = all series). This is how the legacy unlabeled expvar keys are
// derived from the labeled families.
func (v *CounterVec) Sum(filter func(values []string) bool) int64 {
	keys, series := v.f.snapshot()
	var total int64
	for i, s := range series {
		if filter == nil || filter(keys[i]) {
			total += s.(*Counter).Value()
		}
	}
	return total
}

// ------------------------------------------------------------------ gauge

// Gauge is an instantaneous value, either set directly or computed by a
// callback at scrape time.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set stores v. Panics if the gauge was registered with a callback.
func (g *Gauge) Set(v float64) {
	if g.fn != nil {
		panic("obs: Set on a callback gauge")
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (either sign). Panics on a callback
// gauge.
func (g *Gauge) Add(delta float64) {
	if g.fn != nil {
		panic("obs: Add on a callback gauge")
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// String renders the value, making Gauge usable as an expvar.Var.
func (g *Gauge) String() string { return formatFloat(g.Value()) }

// Gauge registers a label-less settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.seriesFor(nil, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a label-less gauge computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.seriesFor(nil, func() any { return &Gauge{fn: fn} })
}

// GaugeVec is a settable gauge family fanned out over label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec " + name + " needs at least one label")
	}
	return &GaugeVec{r.register(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.seriesFor(values, func() any { return new(Gauge) }).(*Gauge)
}

// -------------------------------------------------------------- histogram

// Histogram counts observations into fixed buckets: counts[i] holds
// observations v <= bounds[i] that missed every lower bucket, and the
// final counts entry is the implicit +Inf bucket. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the "le" bucket
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns per-bucket (non-cumulative) counts; the final
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank. Returns 0
// with no observations; a target in the +Inf bucket returns the top
// finite bound (the histogram cannot see beyond it).
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	return quantileOf(h.bounds, counts, total, q)
}

func quantileOf(bounds []float64, counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i == len(bounds) { // +Inf bucket: saturate at the top bound
				if len(bounds) == 0 {
					return 0
				}
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum-c)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// Histogram registers a label-less histogram with the given bucket
// upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, KindHistogram, nil, buckets)
	return f.seriesFor(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family fanned out over label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family (nil buckets =
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec " + name + " needs at least one label")
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.seriesFor(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Quantile estimates the q-quantile across all series merged
// bucket-wise — the family-wide view the legacy latency_p50_ms expvar
// keys are computed from.
func (v *HistogramVec) Quantile(q float64) float64 {
	_, series := v.f.snapshot()
	merged := make([]int64, len(v.f.buckets)+1)
	var total int64
	for _, s := range series {
		for i, c := range s.(*Histogram).BucketCounts() {
			merged[i] += c
			total += c
		}
	}
	return quantileOf(v.f.buckets, merged, total, q)
}

// Count totals observations across all series.
func (v *HistogramVec) Count() int64 {
	_, series := v.f.snapshot()
	var total int64
	for _, s := range series {
		total += s.(*Histogram).Count()
	}
	return total
}

// formatFloat renders a float the way Prometheus text exposition wants.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
