// Package obs is the node's dependency-free observability kit: a
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text-format exposition, a text-format parser for tests and
// tooling, and an HTTP middleware that meters every route and stamps
// requests with an X-Request-ID for log correlation.
//
// The package deliberately has no third-party dependencies: instruments
// are small structs over sync/atomic and sync.Mutex, and the exposition
// writer emits the subset of the Prometheus text format that scrapers
// require (# HELP, # TYPE, sorted families, escaped labels, cumulative
// histogram buckets with +Inf).
//
// Histogram is also the type behind the store's in-process stats
// (streamstore.StoreStats embeds it), so Store.Stats and /metrics report
// the same observations.
package obs

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-bucket counting histogram, the shape shared by
// the store's stats and the registry's Prometheus exposition. Bucket i
// counts observations v with v <= UpperBounds[i] (and above the previous
// bound); the final entry of Counts is the overflow bucket, so
// len(Counts) == len(UpperBounds)+1.
//
// A bare Histogram is not safe for concurrent use; wrap it in a
// HistogramMetric (or guard it with the owner's lock, as the stream
// store does) when observers race.
type Histogram struct {
	// UpperBounds are the inclusive bucket upper bounds, ascending.
	UpperBounds []float64 `json:"upperBounds"`
	// Counts holds one count per bucket plus the trailing overflow
	// bucket.
	Counts []int64 `json:"counts"`
	// Count and Sum aggregate every observation (Sum in the histogram's
	// unit), so mean = Sum/Count without walking buckets; Max is the
	// largest observation seen.
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
}

// NewHistogram returns an empty histogram over the given ascending
// bucket bounds (plus the implicit overflow bucket).
func NewHistogram(bounds []float64) Histogram {
	return Histogram{
		UpperBounds: bounds,
		Counts:      make([]int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.UpperBounds) && v > h.UpperBounds[i] {
		i++
	}
	h.Counts[i]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Clone returns a deep copy (the Counts slice is not shared).
func (h Histogram) Clone() Histogram {
	h.Counts = append([]int64(nil), h.Counts...)
	h.UpperBounds = append([]float64(nil), h.UpperBounds...)
	return h
}

// Sub returns the histogram of observations recorded between base and h,
// where base is an earlier snapshot of the same cumulative histogram:
// bucket counts, Count, and Sum subtract. Max cannot be windowed from
// two cumulative snapshots, so it carries h's all-time high-water mark.
// The result is a deep copy.
func (h Histogram) Sub(base Histogram) Histogram {
	out := h.Clone()
	if len(base.Counts) != len(out.Counts) {
		return out
	}
	for i := range out.Counts {
		out.Counts[i] -= base.Counts[i]
	}
	out.Count -= base.Count
	out.Sum -= base.Sum
	return out
}

// Mean returns the average observation (0 before any).
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observations: the smallest bucket bound at which the cumulative count
// reaches q, or Max for observations past the last bound. It is a
// bucket-resolution estimate, good enough for dashboards and tuning.
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if float64(target) < q*float64(h.Count) || target == 0 {
		target++
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.UpperBounds) {
				return h.UpperBounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// String renders the non-empty buckets compactly, e.g.
// "<=1:3 <=4:10 >256:1 (count 14)".
func (h Histogram) String() string {
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if i < len(h.UpperBounds) {
			fmt.Fprintf(&b, "<=%g:%d", h.UpperBounds[i], c)
		} else {
			fmt.Fprintf(&b, ">%g:%d", h.UpperBounds[len(h.UpperBounds)-1], c)
		}
	}
	if b.Len() == 0 {
		b.WriteString("empty")
	}
	fmt.Fprintf(&b, " (count %d)", h.Count)
	return b.String()
}
