// Package obs is the serving tier's self-telemetry layer: the paper's
// "you cannot debug what you cannot observe" thesis turned on our own
// collector stack. It provides three dependency-free pillars:
//
//   - Metrics: atomic counters, gauges and fixed log-bucketed histograms
//     registered in a Registry and rendered in Prometheus text exposition
//     format (Registry.WritePrometheus / Registry.Handler, mounted at
//     GET /metrics by exrayd and exraygw). The hot-path operations —
//     Counter.Add, Gauge.Set, Histogram.Observe — are single atomic
//     updates: zero allocations, no locks, safe for concurrent use.
//     Every mutator is also nil-receiver safe, so instrumented code needs
//     no "is telemetry on?" conditionals: a disabled metric is a nil
//     pointer and the call is a no-op.
//
//   - Tracing (trace.go): a request-scoped trace ID minted by the upload
//     client (X-MLEXray-Trace), propagated gateway → shard → WAL, with
//     per-hop Spans recorded into a bounded in-process ring buffer dumped
//     at GET /debug/trace — one slow chunk can be followed across tiers.
//
//   - Profiling (debug.go): an opt-in debug mux bundling net/http/pprof,
//     runtime gauges (goroutines, heap, GC) and the two endpoints above,
//     served on a separate -debug-addr listener by the daemons.
//
// The histogram bucket scheme is shared: LatencyBounds is the one
// log-spaced (1-2-5 per decade) bound set used by the ingest and gateway
// latency histograms and by the storm harness's time-windowed p50/p99
// summaries, so client- and server-side latency views bucket identically.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, rendered as key="value". Labels
// distinguish series within a family (e.g. responses by status, proxy
// latency by shard) and are fixed at registration: the hot path never
// formats label strings.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter is a no-op (telemetry disabled).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a caller bug; they are not checked on the
// hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bound distribution: observations land in the first
// bucket whose upper bound is >= the value (cumulative "le" semantics in
// the exposition), with one extra overflow bucket for +Inf. Observe is a
// binary search plus two atomic updates — zero allocations, lock-free.
// A nil Histogram is a no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// newHistogram builds a histogram over sorted, strictly increasing bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// NewHistogram builds a standalone histogram (no registry) over sorted,
// strictly increasing bucket bounds — for in-process summaries like the
// storm harness's windowed latency stats, which must bucket identically to
// the server-side exposition histograms.
func NewHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Inline lower-bound search: first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the idiomatic
// latency observation.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q'th quantile (0 <= q <= 1) from the bucket
// counts: nearest-rank over the cumulative distribution with linear
// interpolation inside the winning bucket. An exact bound is returned
// exactly (no float drift) when the rank lands on a bucket's upper edge;
// observations in the +Inf overflow bucket clamp to the last finite bound.
// Returns 0 on an empty (or nil) histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if cum+n >= rank {
			upper := h.bounds[len(h.bounds)-1]
			if i < len(h.bounds) {
				upper = h.bounds[i]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if i >= len(h.bounds) {
				return upper // +Inf bucket clamps to the last finite bound
			}
			frac := float64(rank-cum) / float64(n)
			if frac >= 1 {
				return upper
			}
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// latencyBounds is the shared latency bucket scheme: 1-2-5 per decade from
// 10µs to 10s, in seconds. Wide enough for a sub-100µs WAL fsync and a
// multi-second retry stall alike, and coarse enough that a histogram is 20
// atomics, not a quantile sketch.
var latencyBounds = []float64{
	0.00001, 0.00002, 0.00005,
	0.0001, 0.0002, 0.0005,
	0.001, 0.002, 0.005,
	0.01, 0.02, 0.05,
	0.1, 0.2, 0.5,
	1, 2, 5,
	10,
}

// LatencyBounds returns the shared log-spaced latency bucket bounds
// (seconds) used by every latency histogram in the system — the ingest and
// gateway request histograms, the WAL append/fsync histograms, and the
// storm harness's windowed p50/p99 summaries. Callers get a copy.
func LatencyBounds() []float64 {
	return append([]float64(nil), latencyBounds...)
}

// metricKind tags a family's exposition TYPE line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labeled instance within a family.
type series struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	index  map[string]*series
}

// Registry holds a process's (or one server instance's) metric families and
// renders them in Prometheus text exposition format. Registration takes a
// lock; the returned Counter/Gauge/Histogram pointers are then lock-free on
// the hot path, so callers register once at construction and hold the
// pointers. A nil Registry returns nil instruments from every getter —
// telemetry off, all mutators no-ops.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// labelString renders labels in the given order; empty labels render "".
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getFamily returns (creating if needed) the named family; a kind mismatch
// returns nil (the caller then hands back a detached no-op instrument
// rather than corrupting the exposition).
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			return nil
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, index: make(map[string]*series)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter returns the named counter series, registering it on first use.
// Repeat calls with the same name and labels return the same Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	if f == nil {
		return new(Counter)
	}
	key := labelString(labels)
	if s, ok := f.index[key]; ok {
		return s.counter
	}
	s := &series{labels: key, counter: new(Counter)}
	f.index[key] = s
	f.series = append(f.series, s)
	return s.counter
}

// Gauge returns the named gauge series, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	if f == nil {
		return new(Gauge)
	}
	key := labelString(labels)
	if s, ok := f.index[key]; ok {
		return s.gauge
	}
	s := &series{labels: key, gauge: new(Gauge)}
	f.index[key] = s
	f.series = append(f.series, s)
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time — the
// runtime metrics (goroutines, heap) use this. Repeat registrations of the
// same series replace the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	if f == nil {
		return
	}
	key := labelString(labels)
	if s, ok := f.index[key]; ok {
		s.gaugeFn = fn
		return
	}
	s := &series{labels: key, gaugeFn: fn}
	f.index[key] = s
	f.series = append(f.series, s)
}

// Histogram returns the named histogram series, registering it with the
// given bucket bounds on first use (later calls reuse the first bounds).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram)
	if f == nil {
		return newHistogram(bounds)
	}
	key := labelString(labels)
	if s, ok := f.index[key]; ok {
		return s.hist
	}
	s := &series{labels: key, hist: newHistogram(bounds)}
	f.index[key] = s
	f.series = append(f.series, s)
	return s.hist
}

// formatValue renders a float the way the exposition expects: integers
// without an exponent, everything else in Go's shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in Prometheus text exposition format
// (version 0.0.4): families in registration order, series in registration
// order within each family, histograms as cumulative _bucket{le=...} series
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	perFam := make([][]*series, len(fams))
	for i, f := range fams {
		perFam[i] = append([]*series(nil), f.series...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range perFam[i] {
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
			case s.gaugeFn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.gaugeFn()))
			case s.hist != nil:
				writeHistogram(&b, f.name, s.labels, s.hist)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets, sum,
// count. The le label is appended after any fixed labels.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	bucketLabels := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, cum)
}

// Handler returns the GET /metrics endpoint: the registry rendered as
// Prometheus text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ParseText parses a Prometheus text exposition into a flat series→value
// map keyed by the full series name including labels (the inverse of
// WritePrometheus, for scrapers and tests). Comment and blank lines are
// skipped; a malformed line is an error.
func ParseText(data []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			return nil, fmt.Errorf("obs: exposition line %d: no value separator in %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", ln+1, err)
		}
		out[line[:idx]] = v
	}
	return out, nil
}

// SumSeries adds up every parsed series whose name (label-stripped) equals
// name — how a scraper folds one counter across shards or statuses.
func SumSeries(parsed map[string]float64, name string) float64 {
	var sum float64
	for k, v := range parsed {
		base := k
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if base == name {
			sum += v
		}
	}
	return sum
}

// MergeParsed folds src's series into dst by addition — summing counters
// (and histogram buckets) across several scraped endpoints. Gauges sum too;
// for the per-shard views this is the fleet total.
func MergeParsed(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}
