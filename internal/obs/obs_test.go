package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"pptd/internal/obs/obstest"
)

func TestHistogramQuantileAndString(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 9} {
		h.Observe(v)
	}
	if h.Count != 7 {
		t.Fatalf("Count = %d, want 7", h.Count)
	}
	if got := h.Max; got != 9 {
		t.Fatalf("Max = %v, want 9", got)
	}
	if got, want := h.Mean(), (0.5+1+1.5+2+3+5+9)/7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
	if got := h.Quantile(1); got != 9 {
		t.Fatalf("Quantile(1) = %v, want Max 9", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0) = %v, want 0", got)
	}
	s := h.String()
	for _, want := range []string{"<=1:2", "<=2:2", "<=4:1", ">4:2", "(count 7)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	if s := NewHistogram(nil).String(); !strings.Contains(s, "empty") {
		t.Fatalf("empty String() = %q", s)
	}
}

func TestHistogramSub(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	base := h.Clone()
	h.Observe(20)
	h.Observe(0.7)
	win := h.Sub(base)
	if win.Count != 2 {
		t.Fatalf("window Count = %d, want 2", win.Count)
	}
	if got, want := win.Sum, 20.7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("window Sum = %v, want %v", got, want)
	}
	if win.Counts[0] != 1 || win.Counts[1] != 0 || win.Counts[2] != 1 {
		t.Fatalf("window Counts = %v, want [1 0 1]", win.Counts)
	}
	// Max is a high-water mark, not windowed.
	if win.Max != 20 {
		t.Fatalf("window Max = %v, want 20", win.Max)
	}
	// Sub deep-copies: mutating the window must not touch the source.
	win.Counts[0] = 99
	if h.Counts[0] == 99 {
		t.Fatal("Sub shares Counts with its receiver")
	}
}

func TestRegistryExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.")
	c.Add(3)
	g := r.Gauge("test_queue_depth", "Items queued.", "shard", "0")
	g.Set(7)
	r.GaugeFunc("test_queue_depth", "Items queued.", func() float64 { return 2 }, "shard", "1")
	v := r.CounterVec("test_errors_total", "Errors by code.", "code")
	v.With(`bad"quote`).Inc()
	v.With("back\\slash\nnewline").Add(2)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests served.\n",
		"# TYPE test_requests_total counter\n",
		"test_requests_total 3\n",
		`test_queue_depth{shard="0"} 7` + "\n",
		`test_queue_depth{shard="1"} 2` + "\n",
		`test_errors_total{code="bad\"quote"} 1` + "\n",
		`test_errors_total{code="back\\slash\nnewline"} 2` + "\n",
		`test_latency_seconds_bucket{le="0.1"} 1` + "\n",
		`test_latency_seconds_bucket{le="1"} 2` + "\n",
		`test_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"test_latency_seconds_sum 5.55\n",
		"test_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families sorted by name: errors < latency < queue < requests.
	order := []string{"# TYPE test_errors_total", "# TYPE test_latency_seconds",
		"# TYPE test_queue_depth", "# TYPE test_requests_total"}
	last := -1
	for _, marker := range order {
		i := strings.Index(out, marker)
		if i < 0 || i < last {
			t.Fatalf("family order wrong (looking for %q after offset %d):\n%s", marker, last, out)
		}
		last = i
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", "Total.").Add(41)
	r.CounterVec("rt_by_code", "By code.", "code").With("x\"y\\z").Add(5)
	r.Gauge("rt_gauge", "A gauge.").Set(-4)
	h := r.Histogram("rt_seconds", "Seconds.", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(100)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	p, err := obstest.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText of our own exposition: %v\n%s", err, b.String())
	}
	if got, err := p.Value("rt_total"); err != nil || got != 41 {
		t.Fatalf("rt_total = %v, %v; want 41", got, err)
	}
	if got, err := p.Value("rt_by_code", "code", "x\"y\\z"); err != nil || got != 5 {
		t.Fatalf("rt_by_code escape round-trip = %v, %v; want 5", got, err)
	}
	if got, err := p.Value("rt_gauge"); err != nil || got != -4 {
		t.Fatalf("rt_gauge = %v, %v; want -4", got, err)
	}
	if got, err := p.Value("rt_seconds_count"); err != nil || got != 3 {
		t.Fatalf("rt_seconds_count = %v, %v; want 3", got, err)
	}
	if got, err := p.Value("rt_seconds_bucket", "le", "+Inf"); err != nil || got != 3 {
		t.Fatalf("+Inf bucket = %v, %v; want 3", got, err)
	}
	if p.Types["rt_seconds"] != "histogram" {
		t.Fatalf("rt_seconds type = %q", p.Types["rt_seconds"])
	}
	if p.Help["rt_total"] != "Total." {
		t.Fatalf("rt_total help = %q", p.Help["rt_total"])
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"sample before TYPE": "foo_total 1\n",
		"bad value":          "# TYPE foo_total counter\nfoo_total abc\n",
		"bad name":           "# TYPE 9foo counter\n9foo 1\n",
		"unterminated label": "# TYPE foo counter\nfoo{a=\"b 1\n",
		"bucket decreases": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf bucket vs count": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
	} {
		if _, err := obstest.ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ParseText accepted %q", name, in)
		}
	}
}

func TestRegistryConflictsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c")
	mustPanic(t, "kind conflict", func() { r.Gauge("c_total", "g") })
	mustPanic(t, "label schema conflict", func() { r.Counter("c_total", "c", "a", "b") })
	mustPanic(t, "invalid name", func() { r.Counter("9bad", "x") })
	mustPanic(t, "reserved le label", func() { r.Counter("ok_total", "x", "le", "1") })
	r.CounterFunc("fn_total", "fn", func() float64 { return 1 })
	mustPanic(t, "func re-registration", func() {
		r.CounterFunc("fn_total", "fn", func() float64 { return 2 })
	})
	mustPanic(t, "direct over func", func() { r.Counter("fn_total", "fn") })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("cc_total", "c", "w")
	h := r.Histogram("cc_seconds", "h", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				vec.With("a").Inc()
				h.Observe(float64(j % 3))
				if j%100 == 0 {
					var b strings.Builder
					_ = r.WriteText(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := vec.With("a").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestNilInstrumentsSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *HistogramMetric
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(2)
	_ = c.Value()
	g.Set(1)
	g.Inc()
	g.Dec()
	_ = g.Value()
	h.Observe(1)
	_ = h.Snapshot()
	cv.With("x").Inc()
	hv.With("x").Observe(1)
}
