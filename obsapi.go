package pptd

import "pptd/internal/obs"

// MetricsRegistry is the node's dependency-free metrics registry:
// counters, gauges, and fixed-bucket histograms, rendered as the
// Prometheus text exposition at GET /metrics. Every Node owns one (see
// Node.Metrics); embedding applications can register their own
// instruments on it.
type MetricsRegistry = obs.Registry

// MetricsHistogram is the fixed-bucket counting histogram the registry's
// Histogram instruments snapshot to — also the type of StreamStoreStats'
// histograms, so the JSON stats views and the /metrics exposition share
// one implementation.
type MetricsHistogram = obs.Histogram

// MetricsTextContentType is the Content-Type of the GET /metrics
// response (Prometheus text exposition format 0.0.4).
const MetricsTextContentType = obs.TextContentType
