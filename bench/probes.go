package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pptd"
	"pptd/internal/crowd"
	"pptd/internal/stats"
	"pptd/internal/stream"
	"pptd/internal/streamstore"
)

// perLayer lists every per-layer metric (BENCHMARK.json per_layer): the
// demoted end-to-end numbers first, then the layers. README.md records
// which end-to-end metric each is predicted to move, on which workload. A
// probe that does not apply to a workload's shape still runs on that
// workload's inputs; trace spans a deployment does not have (cluster.hop
// on a single node) read 0.
var perLayer = append(append([]metricDef(nil), demoted...), []metricDef{
	{name: "core.perturb_ns_per_claim", unit: "ns", lower: true},
	{name: "crowd.frame_decode_ns", unit: "ns", lower: true},
	{name: "crowd.frame_decode_allocs", unit: "count", lower: true},
	{name: "crowd.handle_json_us", unit: "us", lower: true},
	{name: "crowd.handle_json_allocs", unit: "count", lower: true},
	{name: "crowd.handle_binary_us", unit: "us", lower: true},
	{name: "crowd.handle_binary_allocs", unit: "count", lower: true},
	{name: "crowd.submit_us", unit: "us", lower: true},
	{name: "crowd.close_ms", unit: "ms", lower: true},
	{name: "crowd.truths_ms", unit: "ms", lower: true},
	{name: "crowd.truths_kb", unit: "KB", lower: true},
	{name: "obs.middleware_us", unit: "us", lower: true},
	{name: "obs.middleware_allocs", unit: "count", lower: true},
	{name: "stream.ingest_ns_per_claim", unit: "ns", lower: true},
	{name: "stream.ingest_allocs", unit: "count", lower: true},
	{name: "stream.close_ms", unit: "ms", lower: true},
	{name: "stream.close_iterations", unit: "count", lower: true},
	{name: "truth.crh_ms", unit: "ms", lower: true},
	{name: "stream.export_ms", unit: "ms", lower: true},
	{name: "stream.restore_ms", unit: "ms", lower: true},
	{name: "stream.replay_us_per_rec", unit: "us", lower: true},
	{name: "stream.merge_ms", unit: "ms", lower: true},
	{name: "stream.commit_carry_ms", unit: "ms", lower: true},
	{name: "streamstore.append_us_c1", unit: "us", lower: true},
	{name: "streamstore.append_us_cN", unit: "us", lower: true},
	{name: "streamstore.append_allocs", unit: "count", lower: true},
	{name: "streamstore.syncs_per_append", unit: "count", lower: true},
	{name: "streamstore.bytes_per_append", unit: "B", lower: true},
	{name: "streamstore.flush_p50_ms", unit: "ms", lower: true},
	{name: "streamstore.snapshot_ms", unit: "ms", lower: true},
	{name: "streamstore.snapshot_mb", unit: "MB", lower: true},
	{name: "streamstore.save_result_ms", unit: "ms", lower: true},
	{name: "streamstore.recover_ms", unit: "ms", lower: true},
	{name: "cluster.route_us", unit: "us", lower: true},
	{name: "cluster.worker_close_ms", unit: "ms", lower: true},
	{name: "cluster.commit_ms", unit: "ms", lower: true},
	{name: "cluster.close_ms", unit: "ms", lower: true},
	{name: "cluster.ring_skew", unit: "ratio", lower: true},
	{name: "loadgen.submit_p99_ms", unit: "ms", lower: true},
	{name: "loadgen.submit_p999_ms", unit: "ms", lower: true},
	{name: "loadgen.in_close_p50_ms", unit: "ms", lower: true},
	{name: "loadgen.late_p99_ms", unit: "ms", lower: true},
	{name: "loadgen.windows", unit: "count", lower: false},
	{name: "trace.loadgen.submit.self_us", unit: "us", lower: true},
	{name: "trace.loadgen.close.self_us", unit: "us", lower: true},
	{name: "trace.http.front.self_us", unit: "us", lower: true},
	{name: "trace.cluster.hop.self_us", unit: "us", lower: true},
	{name: "trace.http.worker.self_us", unit: "us", lower: true},
	{name: "trace.streamstore.append.self_us", unit: "us", lower: true},
	{name: "trace.self_sum_pct", unit: "%", lower: true},
	{name: "trace.overhead_pct", unit: "%", lower: true},
}...)

// Probe budgets: every timed call gets at least a second of samples or a
// thousand calls. Slow calls (closes, snapshots, recoveries: tens to
// hundreds of ms each) are repeated until their samples add up to the
// run's probeBudget and report the median; fast calls get thousands.
const (
	probeMinReps     = 5
	probeFastCalls   = 20000
	probeAppendCalls = 1000
	probeClusterCap  = 2000 // roster cap of the cluster probe: three loopback nodes, an fsync per device
)

// perLayerRun is --trace 1: a short untraced reference run, the same
// run traced (a third of the measurement length each), and the layer
// probes on the inputs the reference run generated.
func perLayerRun(rc runConfig, tracePath string) (result, error) {
	rc.seconds /= 3
	rc.minWindows = max(rc.minWindows/3, 1)
	rc.setups = 1
	rc.recoveries = min(rc.recoveries, 3)
	plain, err := run(rc)
	out := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricValue{}}
	if err != nil {
		return out, fmt.Errorf("untraced reference run: %w", err)
	}

	traced := rc
	traced.recoveries = 1
	traced.tr = newTracer()
	traced.workdir = filepath.Join(rc.workdir, "traced")
	var tres *runResult
	err = withDefaultTransport(func(base http.RoundTripper) http.RoundTripper {
		return hopTransport{t: traced.tr, base: base}
	}, func() error {
		var err error
		tres, err = run(traced)
		return err
	})
	out.Attempted += tres.attempted
	out.Failed += tres.failed
	if err != nil {
		return out, fmt.Errorf("traced run: %w", err)
	}
	spans := traced.tr.snapshot()
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return out, err
	}
	if err := writeTrace(tracePath, spans); err != nil {
		return out, err
	}
	fmt.Fprintf(rc.log, "bench: %d spans written to %s\n", len(spans), tracePath)

	vals := map[string]float64{}
	for _, d := range demoted {
		vals[d.name] = plain.e2e[d.name]
	}
	for name, v := range plain.gen {
		vals[name] = v
	}
	self, selfSum, rootSum := selfTimes(spans)
	for name, v := range self {
		vals["trace."+name+".self_us"] = v
	}
	if rootSum > 0 {
		vals["trace.self_sum_pct"] = 100 * selfSum / rootSum
	}
	vals["trace.overhead_pct"] = 100 * (plain.e2e["submit_per_s"] - tres.e2e["submit_per_s"]) / plain.e2e["submit_per_s"]

	if err := layerProbes(rc, plain.f, filepath.Join(rc.workdir, "probes"), vals); err != nil {
		return out, fmt.Errorf("layer probes: %w", err)
	}
	out.Correct = true
	for _, d := range perLayer {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out, nil
}

// withDefaultTransport runs fn with http.DefaultTransport decorated. The
// coordinator a Node hosts builds its worker clients on the default
// transport, so this is the seam the public API offers for the hop.
func withDefaultTransport(wrap func(http.RoundTripper) http.RoundTripper, fn func() error) error {
	base := http.DefaultTransport
	http.DefaultTransport = wrap(base)
	defer func() { http.DefaultTransport = base }()
	return fn()
}

// timeCalls runs fn n times on this goroutine and returns the mean
// wall time per call and the heap allocations per call.
func timeCalls(n int, fn func(i int)) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return took / time.Duration(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// enough reports whether samples (milliseconds) fill the probe budget.
func (rc runConfig) enough(samples []float64) bool {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return len(samples) >= probeMinReps && sum >= ms(rc.probeBudget)
}

// medianOf repeats fn until its timings fill the probe budget and
// returns their median in milliseconds.
func (rc runConfig) medianOf(fn func() error) (float64, error) {
	var samples []float64
	for !rc.enough(samples) {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(start)))
	}
	return stats.Median(samples), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// probeInputs are the workload's generated claims in every shape a layer
// takes them. The workload's own wire format comes framed from the fleet;
// only the other one is encoded here.
type probeInputs struct {
	f      *fleet
	idb    [][]byte
	claims [][]stream.Claim
	json   [][]byte
	frames [][]byte
}

func newProbeInputs(f *fleet) (*probeInputs, error) {
	p := &probeInputs{f: f}
	for i, cl := range f.claims {
		sc := make([]stream.Claim, len(cl))
		for n, c := range cl {
			sc[n] = stream.Claim{Object: c.Object, Value: c.Value}
		}
		p.idb = append(p.idb, []byte(f.ids[i]))
		p.claims = append(p.claims, sc)
		if f.w.binary {
			body, err := json.Marshal(pptd.CampaignSubmission{ClientID: f.ids[i], Claims: cl})
			if err != nil {
				return nil, err
			}
			p.frames, p.json = append(p.frames, f.body(i)), append(p.json, body)
		} else {
			p.frames, p.json = append(p.frames, crowd.AppendClaimFrame(nil, f.ids[i], cl)), append(p.json, f.body(i))
		}
	}
	return p, nil
}

// claimsRequest builds one POST /v1/stream/claims for an in-process
// handler call.
func claimsRequest(body []byte, binary bool, id string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/stream/claims", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	if binary {
		r.Header.Set("Content-Type", pptd.ContentTypeClaims)
	}
	r.Header.Set("X-Request-ID", id)
	return r
}

// serveAll times h.ServeHTTP over users [from, to) of the roster with
// requests and recorders built beforehand, and fails on any non-200.
func (p *probeInputs) serveAll(h http.Handler, binary bool, from, to int) (time.Duration, float64, error) {
	reqs := make([]*http.Request, 0, to-from)
	recs := make([]*httptest.ResponseRecorder, 0, to-from)
	for u := from; u < to; u++ {
		body := p.json[u]
		if binary {
			body = p.frames[u]
		}
		reqs = append(reqs, claimsRequest(body, binary, p.f.ids[u]))
		recs = append(recs, httptest.NewRecorder())
	}
	per, allocs := timeCalls(len(reqs), func(i int) { h.ServeHTTP(recs[i], reqs[i]) })
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("handler answered %d for %s: %s", rec.Code, p.f.ids[from+i], rec.Body)
		}
	}
	return per, allocs, nil
}

// layerProbes times calls into each layer's public functions on the
// workload's generated inputs, in-process, and adds the numbers to vals.
func layerProbes(rc runConfig, f *fleet, dir string, vals map[string]float64) error {
	p, err := newProbeInputs(f)
	if err != nil {
		return err
	}
	w, users := rc.w, rc.w.users
	cfg := w.engineConfig()

	// core: the device-side mechanism set-up pays for.
	mech, err := pptd.NewMechanism(lambda2)
	if err != nil {
		return err
	}
	perturber := mech.NewUserPerturber(pptd.NewRNG(rc.seed))
	readings := make([]float64, w.objects)
	per, _ := timeCalls(probeFastCalls/4, func(int) { _ = perturber.PerturbAll(readings) })
	vals["core.perturb_ns_per_claim"] = float64(per) / float64(w.objects)

	// crowd wire: one frame into a pooled frame.
	frame := crowd.GetClaimFrame()
	var decodeErr error
	per, allocs := timeCalls(probeFastCalls, func(i int) {
		if _, err := crowd.DecodeClaimFrameBytes(p.frames[i%users], frame); err != nil {
			decodeErr = err
		}
	})
	crowd.PutClaimFrame(frame)
	if decodeErr != nil {
		return decodeErr
	}
	vals["crowd.frame_decode_ns"], vals["crowd.frame_decode_allocs"] = float64(per), allocs

	stages := []struct {
		name string
		run  func() error
	}{
		{"durable node", func() error { return probeDurableNode(rc, p, filepath.Join(dir, "node"), vals) }},
		{"middleware", func() error { return probeMiddleware(rc, p, vals) }},
		{"engine", func() error { return probeEngine(rc, p, cfg, vals) }},
		{"ledger append", func() error { return probeAppend(rc, p, filepath.Join(dir, "append"), vals) }},
		{"batch CRH", func() (err error) {
			vals["truth.crh_ms"], err = rc.medianOf(func() error { _, err := f.batchCRH(); return err })
			return err
		}},
		{"cluster", func() error { return probeCluster(rc, p, filepath.Join(dir, "cluster"), vals) }},
	}
	for _, st := range stages {
		start := time.Now()
		if err := st.run(); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		fmt.Fprintf(rc.log, "bench: probes: %s took %.1fs\n", st.name, time.Since(start).Seconds())
	}
	return nil
}

// probeDurableNode drives a durable node built like the workload's, at
// the workload's size, with no sockets: one window through the JSON
// handler, one through the binary handler, one through Submit (with the
// ledger on a device may submit once per window), a timed close after
// each and more closes until the budget is filled; then Truths and the
// store under the node (snapshot, result, recovery of a crash image).
func probeDurableNode(rc runConfig, p *probeInputs, dir string, vals map[string]float64) error {
	w, users := rc.w, rc.w.users
	node, err := pptd.NewNode(pptd.WithStreamConfig(w.engineConfig()), pptd.WithPersistence(dir))
	if err != nil {
		return err
	}
	defer node.Close()
	srv := node.Stream()

	var closeMs []float64
	timedClose := func() error {
		start := time.Now()
		_, err := srv.CloseWindow()
		closeMs = append(closeMs, ms(time.Since(start)))
		return err
	}
	h := srv.Handler()
	per, allocs, err := p.serveAll(h, false, 0, users)
	if err == nil {
		err = timedClose()
	}
	if err != nil {
		return err
	}
	vals["crowd.handle_json_us"], vals["crowd.handle_json_allocs"] = us(per), allocs
	if per, allocs, err = p.serveAll(h, true, 0, users); err == nil {
		err = timedClose()
	}
	if err != nil {
		return err
	}
	vals["crowd.handle_binary_us"], vals["crowd.handle_binary_allocs"] = us(per), allocs

	var subErr error
	submit := func(u int) {
		if _, err := srv.Submit(pptd.CampaignSubmission{ClientID: p.f.ids[u], Claims: p.f.claims[u]}); err != nil {
			subErr = err
		}
	}
	per, _ = timeCalls(users, submit)
	if subErr != nil {
		return subErr
	}
	vals["crowd.submit_us"] = us(per)
	// With no forgetting the statistics stay live, so the closes after
	// the third need no fresh claims.
	for len(closeMs) < 3 || !rc.enough(closeMs) {
		if err := timedClose(); err != nil {
			return err
		}
	}
	vals["crowd.close_ms"] = stats.Median(closeMs)

	var truthsLen int
	vals["crowd.truths_ms"], err = rc.medianOf(func() error {
		info, err := srv.Truths()
		if err != nil {
			return err
		}
		buf, err := json.Marshal(info)
		truthsLen = len(buf)
		return err
	})
	if err != nil {
		return err
	}
	vals["crowd.truths_kb"] = float64(truthsLen) / 1024

	store, eng := node.Store(), srv.Engine()
	if vals["streamstore.snapshot_ms"], err = rc.medianOf(func() error { return store.SnapshotEngine(eng) }); err != nil {
		return err
	}
	if st, err := os.Stat(filepath.Join(dir, streamstore.SnapshotFileName)); err == nil {
		vals["streamstore.snapshot_mb"] = float64(st.Size()) / (1 << 20)
	}
	if vals["streamstore.save_result_ms"], err = rc.medianOf(func() error { return store.SaveResult(eng.Snapshot()) }); err != nil {
		return err
	}

	// Crash image with a quarter of the roster in the open window, then
	// Recover into a fresh engine, as a restarted node does.
	for u := 0; u < users/4; u++ {
		submit(u)
	}
	if subErr != nil {
		return subErr
	}
	image := dir + "-crash"
	if err := copyTree(dir, image); err != nil {
		return err
	}
	vals["streamstore.recover_ms"], err = rc.medianOf(func() error {
		st, err := streamstore.Open(image)
		if err != nil {
			return err
		}
		defer st.Close()
		cfg := w.engineConfig()
		if w.accounting {
			cfg.Ledger, cfg.ClaimWAL = st, true
		}
		cfg.UserStore = st
		fresh, err := stream.New(cfg)
		if err != nil {
			return err
		}
		defer fresh.Close()
		_, err = st.Recover(fresh)
		return err
	})
	return err
}

// probeMiddleware prices the node's telemetry middleware: Node.Handler()
// against the bare Stream().Handler() on a memory-only node with the
// ledger off, so no fsync drowns the difference, in alternating blocks
// so drift in machine speed cancels.
func probeMiddleware(rc runConfig, p *probeInputs, vals map[string]float64) error {
	cfg := rc.w.engineConfig()
	cfg.Lambda1, cfg.Delta = 0, 0
	node, err := pptd.NewNode(pptd.WithStreamConfig(cfg))
	if err != nil {
		return err
	}
	defer node.Close()
	full, bare := node.Handler(), node.Stream().Handler()
	users := rc.w.users
	var fullT, bareT time.Duration
	var fullA, bareA float64
	const blocks = 4
	for b := 0; b < blocks; b++ {
		from, to := b*users/blocks, (b+1)*users/blocks
		per, allocs, err := p.serveAll(full, rc.w.binary, from, to)
		if err != nil {
			return err
		}
		fullT, fullA = fullT+per, fullA+allocs
		if per, allocs, err = p.serveAll(bare, rc.w.binary, from, to); err != nil {
			return err
		}
		bareT, bareA = bareT+per, bareA+allocs
	}
	vals["obs.middleware_us"] = us(fullT-bareT) / blocks
	vals["obs.middleware_allocs"] = (fullA - bareA) / blocks
	return nil
}

// probeEngine times the memory-only engine: steady-state ingest, close,
// export/restore, journal replay, and the cluster merge of a two-way
// split of the same users.
func probeEngine(rc runConfig, p *probeInputs, cfg stream.Config, vals map[string]float64) error {
	users, objects := rc.w.users, rc.w.objects
	eng, err := stream.New(cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	var ingestErr error
	ingest := func(e *stream.Engine) func(u int) {
		return func(u int) {
			if _, _, err := e.IngestBytes(p.idb[u], p.claims[u]); err != nil {
				ingestErr = err
			}
		}
	}
	// Window 1 admits every user (allocating); later windows are the
	// steady state the ingest numbers describe.
	for u := 0; u < users; u++ {
		ingest(eng)(u)
	}
	if _, err := eng.CloseWindow(); err != nil {
		return err
	}
	var perSum time.Duration
	var allocSum float64
	var closes []float64
	var last *stream.WindowResult
	// Rounds of ingest-then-close until both have their second.
	for !rc.enough(closes) || perSum*time.Duration(users) < rc.probeBudget {
		per, allocs := timeCalls(users, ingest(eng))
		perSum, allocSum = perSum+per, allocSum+allocs
		start := time.Now()
		if last, err = eng.CloseWindow(); err != nil {
			return err
		}
		closes = append(closes, ms(time.Since(start)))
	}
	if ingestErr != nil {
		return ingestErr
	}
	rounds := float64(len(closes))
	vals["stream.ingest_ns_per_claim"] = float64(perSum) / rounds / float64(objects)
	vals["stream.ingest_allocs"] = allocSum / rounds
	vals["stream.close_ms"] = stats.Median(closes)
	vals["stream.close_iterations"] = float64(last.Iterations)

	var state *stream.EngineState
	if vals["stream.export_ms"], err = rc.medianOf(func() error {
		state, err = eng.ExportState()
		return err
	}); err != nil {
		return err
	}
	if vals["stream.restore_ms"], err = rc.medianOf(func() error {
		fresh, err := stream.New(cfg)
		if err != nil {
			return err
		}
		defer fresh.Close()
		return fresh.Restore(state)
	}); err != nil {
		return err
	}

	// Journal replay needs accounting (records are charges), whatever the
	// workload runs with.
	acct := cfg
	acct.Lambda1, acct.Delta = lambda1, delta
	recs := make([]stream.ChargeRecord, users)
	replayMs, err := rc.medianOf(func() error {
		fresh, err := stream.New(acct)
		if err != nil {
			return err
		}
		defer fresh.Close()
		for u := range recs {
			recs[u] = stream.ChargeRecord{User: p.f.ids[u], Window: 0, Epsilon: fresh.EpsilonPerWindow(), Claims: p.claims[u]}
		}
		n, err := fresh.ReplayJournal(recs)
		if err == nil && n != users {
			err = fmt.Errorf("replayed %d of %d records", n, users)
		}
		return err
	})
	if err != nil {
		return err
	}
	vals["stream.replay_us_per_rec"] = replayMs * 1e3 / float64(users)

	// Cluster merge: two engines holding half the users each, exported as
	// workers do, merged and estimated once, carries committed back.
	var halves [2]*stream.Engine
	var parts []*stream.EngineState
	for h := range halves {
		half, err := stream.New(cfg)
		if err != nil {
			return err
		}
		defer half.Close()
		for u := h; u < users; u += 2 {
			ingest(half)(u)
		}
		st, err := half.CloseWindowExport()
		if err != nil {
			return err
		}
		halves[h], parts = half, append(parts, st)
	}
	if ingestErr != nil {
		return ingestErr
	}
	var merged *stream.EngineState
	if vals["stream.merge_ms"], err = rc.medianOf(func() error {
		merged, err = stream.MergeStates(parts)
		return err
	}); err != nil {
		return err
	}
	whole, err := stream.New(cfg)
	if err != nil {
		return err
	}
	defer whole.Close()
	if err := whole.Restore(merged); err != nil {
		return err
	}
	if _, err := whole.CloseWindow(); err != nil {
		return err
	}
	carries, err := whole.ExportCarry()
	if err != nil {
		return err
	}
	var commitErr error
	per, _ := timeCalls(1000, func(int) {
		if err := halves[0].CommitCarry(carries); err != nil {
			commitErr = err
		}
	})
	vals["stream.commit_carry_ms"] = ms(per)
	return commitErr
}

// probeAppend times the store's ledger append — a claim-WAL record like
// the engine writes — with one caller and with C callers, and reads the
// group-commit counters over the C-caller part.
func probeAppend(rc runConfig, p *probeInputs, dir string, vals map[string]float64) error {
	store, err := streamstore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	users := rc.w.users
	appendOne := func(i int) error {
		return store.AppendCharge(stream.ChargeRecord{User: p.f.ids[i%users], Window: i / users, Epsilon: 1, Claims: p.claims[i%users]})
	}
	var appendErr error
	per, allocs := timeCalls(probeAppendCalls, func(i int) {
		if err := appendOne(i); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	vals["streamstore.append_us_c1"], vals["streamstore.append_allocs"] = us(per), allocs

	store.Stats(true)
	bytes0 := store.Stats(false).JournalBytes
	errs := make([]error, rc.conns) // one slot per caller, so callers share nothing
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < rc.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < probeAppendCalls && errs[c] == nil; i++ {
				errs[c] = appendOne((c+1)*probeAppendCalls + i)
			}
		}(c)
	}
	wg.Wait()
	took := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	st := store.Stats(false)
	vals["streamstore.append_us_cN"] = us(took) / probeAppendCalls
	vals["streamstore.syncs_per_append"] = float64(st.JournalSyncs) / float64(st.JournalAppends)
	vals["streamstore.bytes_per_append"] = float64(st.JournalBytes-bytes0) / float64(st.JournalAppends)
	vals["streamstore.flush_p50_ms"] = st.FlushLatencySeconds.Quantile(0.5) * 1e3
	return nil
}

// captureCommits remembers the body of each worker's last commit RPC, so
// the probe can replay the coordinator's own request on the worker.
type captureCommits struct {
	base http.RoundTripper
	mu   sync.Mutex
	last map[string][]byte // by worker host
}

func (c *captureCommits) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/cluster/commit" && r.Body != nil {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		_ = r.Body.Close()
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		c.mu.Lock()
		c.last[r.URL.Host] = body
		c.mu.Unlock()
	}
	return c.base.RoundTrip(r)
}

// probeCluster boots a coordinator and two durable workers over loopback
// on (up to probeClusterCap of) the workload's users and times the
// routing hop, a worker's close and commit, and the coordinated close.
func probeCluster(rc runConfig, p *probeInputs, dir string, vals map[string]float64) error {
	w := rc.w
	w.workers, w.accounting = 2, true
	users := min(w.users, probeClusterCap)
	tr := newTracer()
	capture := &captureCommits{last: map[string][]byte{}}
	return withDefaultTransport(func(base http.RoundTripper) http.RoundTripper {
		capture.base = base
		return capture
	}, func() error {
		d, err := w.boot(dir, nil, tr)
		if err != nil {
			return err
		}
		defer d.stop()
		coord := d.nodes[w.workers].node.Coordinator()

		// Routing: Coordinator.Submit minus the worker's handler span.
		tr.enable(true)
		ctx := context.Background()
		var subErr error
		per, _ := timeCalls(users, func(u int) {
			if _, err := coord.Submit(ctx, pptd.CampaignSubmission{ClientID: p.f.ids[u], Claims: p.f.claims[u]}); err != nil {
				subErr = err
			}
		})
		tr.enable(false)
		if subErr != nil {
			return subErr
		}
		var inWorker int64
		for _, s := range tr.snapshot() {
			if s.Name == "http.worker" {
				inWorker += s.End - s.Start
			}
		}
		vals["cluster.route_us"] = us(per) - float64(inWorker)/float64(users)/1e3

		owned := map[string]int{}
		for u := 0; u < users; u++ {
			owned[coord.Ring().Owner(p.f.ids[u])]++
		}
		most := 0
		for _, n := range owned {
			most = max(most, n)
		}
		vals["cluster.ring_skew"] = float64(most) / (float64(users) / float64(w.workers))

		// Rounds of one window each: the workers' own close, timed
		// directly; the coordinator's close then finds the cached exports
		// and only merges and commits, which hands us its commit requests
		// to replay on the workers, timed. With no forgetting the
		// statistics stay live, so windows after the first need no fresh
		// claims.
		var workerClose, commits []float64
		for !rc.enough(workerClose) {
			window := coord.Window() + 1
			for i := 0; i < w.workers; i++ {
				start := time.Now()
				if _, err := d.nodes[i].node.Stream().ClusterClose(crowd.ClusterCloseRequest{Window: window, Force: true}); err != nil {
					return err
				}
				workerClose = append(workerClose, ms(time.Since(start)))
			}
			if _, err := coord.CloseWindow(); err != nil {
				return err
			}
			for i := 0; i < w.workers; i++ {
				var req crowd.ClusterCommitRequest
				if err := json.Unmarshal(capture.last[d.nodes[i].addr], &req); err != nil {
					return fmt.Errorf("captured commit for worker %d: %w", i, err)
				}
				start := time.Now()
				if _, err := d.nodes[i].node.Stream().ClusterCommit(req); err != nil {
					return err
				}
				commits = append(commits, ms(time.Since(start)))
			}
		}
		vals["cluster.worker_close_ms"] = stats.Median(workerClose)
		vals["cluster.commit_ms"] = stats.Median(commits)

		vals["cluster.close_ms"], err = rc.medianOf(func() error {
			_, err := coord.CloseWindow()
			return err
		})
		return err
	})
}
