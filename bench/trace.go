package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pptd"
	"pptd/internal/obs"
)

// The traced run records spans from the benchmark's own files only, at
// seams the public API already has: around each generator request, an
// http.Handler around every node's Handler(), an http.RoundTripper under
// the coordinator's worker client and a pptd.StreamLedger in front of
// the store. Nothing inside the program is instrumented.

// span is one timed interval. Times are nanoseconds since the tracer
// was created; Parent is 0 for a root.
type span struct {
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent"`
	Name      string `json:"name"`
	RequestID string `json:"requestId,omitempty"`
	Start     int64  `json:"startNs"`
	End       int64  `json:"endNs"`
}

// tracer collects spans in memory; they are written out when the run
// ends. A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool

	mu    sync.Mutex
	spans []span // spans[id-1]
	// inner maps a request ID to the innermost open span of that request,
	// which is the parent of whatever the next layer down opens.
	inner map[string]uint64
	// owner is the open campaign-owner span (closes are serialized): the
	// coordinator's close RPCs carry no request context, so their hops
	// hang under it.
	owner uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inner: make(map[string]uint64)}
}

// spanRequestID is the X-Request-ID that names a span outright, used
// where the registry by request ID cannot link parent and child.
func spanRequestID(id uint64) string { return "span-" + strconv.FormatUint(id, 10) }

// start opens a span. With parent 0 the parent is looked up from the
// request ID: "span-<n>" names it directly, anything else means the
// innermost open span of that request.
func (t *tracer) start(name, requestID string, parent uint64) uint64 {
	if t == nil || !t.enabled.Load() {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	named := strings.HasPrefix(requestID, "span-")
	if parent == 0 && named {
		parent, _ = strconv.ParseUint(requestID[len("span-"):], 10, 64)
		if parent > uint64(len(t.spans)) {
			parent = 0
		}
	} else if parent == 0 && requestID != "" {
		parent = t.inner[requestID]
	}
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, RequestID: requestID, Start: now})
	if requestID != "" && !named {
		t.inner[requestID] = id
	}
	if name == "loadgen.close" {
		t.owner = id
	}
	return id
}

func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if t.inner[s.RequestID] == id {
		if s.Parent != 0 && t.spans[s.Parent-1].RequestID == s.RequestID {
			t.inner[s.RequestID] = s.Parent
		} else {
			delete(t.inner, s.RequestID)
		}
	}
	if t.owner == id {
		t.owner = 0
	}
}

// handler wraps a node's Handler() in a span named name.
func (t *tracer) handler(name string) func(http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := t.start(name, r.Header.Get(obs.HeaderRequestID), 0)
			next.ServeHTTP(w, r)
			t.end(id)
		})
	}
}

// hopTransport is the RoundTripper under the coordinator's worker
// client. The coordinator hands the front request's context down on
// submissions, so the request ID the node's middleware put there links
// the hop to its front-door span, and the hop forwards that ID so the
// worker's span links to the hop. Close and commit RPCs carry no request
// context; they hang under the open loadgen.close span.
type hopTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (h hopTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	reqID := obs.RequestID(r.Context())
	var id uint64
	if reqID != "" {
		id = h.t.start("cluster.hop", reqID, 0)
	} else {
		h.t.mu.Lock()
		owner := h.t.owner
		h.t.mu.Unlock()
		id = h.t.start("cluster.hop", "", owner)
		reqID = spanRequestID(id)
	}
	if id == 0 {
		return h.base.RoundTrip(r)
	}
	out := r.Clone(r.Context())
	out.Header.Set(obs.HeaderRequestID, reqID)
	resp, err := h.base.RoundTrip(out)
	h.t.end(id)
	return resp, err
}

// tracedLedger decorates the node's store where the engine appends a
// charge. A charge record knows only its user, which is also the request
// ID every submission of that device carries.
type tracedLedger struct {
	tr    *tracer
	inner pptd.StreamLedger
}

func (l *tracedLedger) AppendCharge(rec pptd.StreamChargeRecord) error {
	id := l.tr.start("streamstore.append", rec.User, 0)
	err := l.inner.AppendCharge(rec)
	l.tr.end(id)
	return err
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

func writeTrace(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns, per span name, the mean self time in microseconds
// (duration minus the part of the interval its children cover), plus the
// sum of all self times and the sum of the root spans' durations. The
// two sums agree unless children of one span run in parallel.
func selfTimes(spans []span) (perName map[string]float64, selfSum, rootSum float64) {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := make(map[string]float64)
	count := make(map[string]int)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self := float64(s.End - s.Start - covered)
		total[s.Name] += self
		count[s.Name]++
		selfSum += self
		if s.Parent == 0 {
			rootSum += float64(s.End - s.Start)
		}
	}
	perName = make(map[string]float64, len(total))
	for name, v := range total {
		perName[name] = v / float64(count[name]) / 1e3
	}
	return perName, selfSum, rootSum
}

// enable switches recording on for the measurement phase only, so
// set-up and the recovery drill leave no spans.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}
