package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// HeaderRequestID is the request-correlation header: clients may send
// one; the middleware generates one when absent and always echoes it on
// the response, so a user report ("request a1b2c3d4 failed") joins
// against the node's structured logs.
const HeaderRequestID = "X-Request-ID"

// HeaderErrorCode is set by the error-envelope writer alongside the
// JSON body; the middleware reads it back to count envelope emissions
// per code without threading a registry through every handler.
const HeaderErrorCode = "X-Error-Code"

// maxRequestIDLen caps accepted client request IDs; longer (or
// non-printable) IDs are replaced, keeping log lines and label values
// bounded.
const maxRequestIDLen = 128

// Default latency buckets for HTTP request durations: 100µs to 10s.
var requestDurationBounds = []float64{
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

type requestIDKey struct{}

// RequestID returns the request's correlation ID installed by the
// middleware or WithRequestID ("" outside both).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// WithRequestID returns ctx carrying id as its correlation ID, so every
// outgoing call made under it (crowd.Client sends it as X-Request-ID)
// shares one ID — how work that no inbound request started, such as a
// cluster close round, joins its calls in the logs.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// NewRequestID returns a fresh 16-hex-char random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether a client-supplied request ID is
// acceptable for echoing and logging: non-empty printable ASCII without
// spaces, at most 128 bytes. Anything else should be replaced with
// NewRequestID rather than propagated.
func ValidRequestID(id string) bool {
	return validRequestID(id)
}

func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e { // printable ASCII, no spaces
			return false
		}
	}
	return true
}

// MiddlewareConfig parameterizes Middleware.
type MiddlewareConfig struct {
	// Registry receives the request metrics; nil disables metering.
	Registry *Registry
	// Logger receives one structured line per request; nil disables
	// logging.
	Logger *slog.Logger
	// Route maps a request to the handler that serves it and its
	// bounded-cardinality route label (e.g. the mux pattern), so one
	// lookup both labels and dispatches. A nil handler dispatches the
	// wrapped one. A nil Route labels by the URL path — only safe when
	// the path space is closed — and dispatches the wrapped handler.
	Route func(*http.Request) (http.Handler, string)
}

// Middleware wraps an http.Handler with the node's request telemetry:
//
//   - pptd_http_requests_total{route,method,code} and
//     pptd_http_request_duration_seconds{route} per request, plus the
//     pptd_http_requests_in_flight gauge;
//   - pptd_errors_total{code} for responses carrying an X-Error-Code
//     header (set by the crowd error-envelope writer);
//   - an X-Request-ID accepted from the client (or generated), echoed
//     on every response — error envelopes included — and installed in
//     the request context for handlers;
//   - one slog line per request with method, route, path, status,
//     duration, bytes, and the request ID.
func Middleware(cfg MiddlewareConfig) func(http.Handler) http.Handler {
	var (
		requests *CounterVec
		duration *HistogramVec
		inflight *Gauge
		errs     *CounterVec
	)
	if cfg.Registry != nil {
		requests = cfg.Registry.CounterVec("pptd_http_requests_total",
			"HTTP requests served, by route pattern, method, and status code.",
			"route", "method", "code")
		duration = cfg.Registry.HistogramVec("pptd_http_request_duration_seconds",
			"HTTP request latency in seconds, by route pattern.",
			requestDurationBounds, "route")
		inflight = cfg.Registry.Gauge("pptd_http_requests_in_flight",
			"HTTP requests currently being served.")
		errs = cfg.Registry.CounterVec("pptd_errors_total",
			"Error envelopes emitted, by envelope code.", "code")
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(HeaderRequestID)
			if !validRequestID(id) {
				id = NewRequestID()
			}
			w.Header().Set(HeaderRequestID, id)
			r = r.WithContext(WithRequestID(r.Context(), id))

			h, route := next, r.URL.Path
			if cfg.Route != nil {
				var matched http.Handler
				if matched, route = cfg.Route(r); matched != nil {
					h = matched
				}
			}
			inflight.Inc()
			rec := &statusRecorder{ResponseWriter: w}
			start := time.Now()
			h.ServeHTTP(rec, r)
			elapsed := time.Since(start)
			inflight.Dec()

			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			errCode := rec.Header().Get(HeaderErrorCode)
			if cfg.Registry != nil {
				requests.With(route, r.Method, strconv.Itoa(status)).Inc()
				duration.With(route).Observe(elapsed.Seconds())
				if errCode != "" {
					errs.With(errCode).Inc()
				}
			}
			if cfg.Logger != nil {
				attrs := []slog.Attr{
					slog.String("request_id", id),
					slog.String("method", r.Method),
					slog.String("route", route),
					slog.String("path", r.URL.Path),
					slog.Int("status", status),
					slog.Duration("duration", elapsed),
					slog.Int64("bytes", rec.bytes),
				}
				if errCode != "" {
					attrs = append(attrs, slog.String("error_code", errCode))
				}
				level := slog.LevelInfo
				if status >= 500 {
					level = slog.LevelError
				}
				cfg.Logger.LogAttrs(r.Context(), level, "http_request", attrs...)
			}
		})
	}
}

// statusRecorder captures the response status and body size without
// changing the handler-visible behavior.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer when it streams.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }
