package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pptd"
	"pptd/internal/stats"
)

// Run-rule constants (README.md, "Run rules").
const (
	warmupWindows  = 2  // discarded windows through the real path, in set-up
	readsPerClose  = 20 // GET /v1/stream/truths samples after every measured close
	equivTol       = 1e-9
	latencyWindows = 24 // ack-latency samples are preallocated for this many windows
)

// runConfig is one benchmark run of one workload.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64 // length of the measurement phase
	conns   int     // generator connections, one request in flight each
	// minWindows is the fewest windows (closed loop) or closes (open loop)
	// a run measures. A closed-loop run goes on past seconds until it has
	// them, and samples the live heap right after that many, so a slow
	// machine changes neither the sample count nor where the heap is read.
	minWindows int
	setups     int // set-ups timed per run; the median is setup_s
	// recoveries is how many fresh crash-image copies the run recovers;
	// the median is recover_s.
	recoveries int
	// probeBudget is how long the layer probes sample each slow call.
	probeBudget time.Duration
	workdir     string // state dirs and crash images live here
	tr          *tracer
	log         io.Writer
}

// runResult carries one run's numbers. e2e holds the end-to-end metrics
// by name; gen holds the generator-side per-layer numbers the same run
// produces (tails, latency under a close, generator lateness).
type runResult struct {
	e2e       map[string]float64
	gen       map[string]float64
	attempted int64
	failed    int64
	f         *fleet // the generated inputs, for the layer probes
}

// env is a workload set up and ready for its first timed submission.
type env struct {
	f       *fleet
	d       *deployment
	g       *loadgen
	dir     string
	window  int                   // closed windows so far
	first   pptd.StreamWindowInfo // the first warm-up window's estimate
	claimed int64                 // claims the deployment has accepted
}

// tearDown stops the deployment. Its state dir stays until the run ends:
// on a disk mounted with discard, deleting files right before the
// measurement phase makes the first fsyncs of that phase pay for it.
func (e *env) tearDown() error {
	e.g.close()
	return e.d.stop()
}

// setUp is everything setup_s times: generate and perturb the fleet,
// boot the node(s), and run the warm-up windows through the real path —
// which also preloads every device as a tracked user. Once the generator
// exists the env is returned even with an error, so the caller can count
// its operations and stop it.
func setUp(rc runConfig, dir string) (*env, error) {
	f, err := newFleet(rc.w, rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	d, err := rc.w.boot(dir, nil, rc.tr)
	if err != nil {
		return nil, err
	}
	g, err := newLoadgen(f, d.front, rc.conns, rc.tr)
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	e := &env{f: f, d: d, g: g, dir: dir}
	for i := 1; i <= warmupWindows; i++ {
		// The first window is always one claim per device and object with
		// no carried weights: the shape batch CRH can be compared on.
		passes := 1
		if i > 1 && rc.w.rate == 0 {
			passes = rc.w.passes
		}
		n, _ := g.ingestWindow(passes, i, nil)
		e.claimed += int64(n * rc.w.objects)
		info, _, err := g.closeWindow(i, int64(n*rc.w.objects), rc.w.users)
		if err != nil {
			return e, fmt.Errorf("warm-up window %d: %w", i, err)
		}
		if i == 1 {
			e.first = info
		}
		e.window = i
	}
	return e, nil
}

// checkAgainstBatch holds the first warm-up window to batch CRH on the
// same perturbed claims within 1e-9, truths and weights.
func checkAgainstBatch(e *env) error {
	ref, err := e.f.batchCRH()
	if err != nil {
		return err
	}
	for n, want := range ref.Truths {
		if got := e.first.Truths[n]; math.Abs(got-want) > equivTol {
			return fmt.Errorf("window 1 truth[%d] = %v, batch CRH says %v", n, got, want)
		}
	}
	for u, want := range ref.Weights {
		if got := e.first.Weights[e.f.ids[u]]; math.Abs(got-want) > equivTol {
			return fmt.Errorf("window 1 weight[%s] = %v, batch CRH says %v", e.f.ids[u], got, want)
		}
	}
	return nil
}

// cpuSeconds is the CPU time the process has used so far, user plus
// system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// measured is what the measurement phase hands back, closed or open
// loop.
type measured struct {
	accepted  int
	rate      float64 // submit_per_s
	latencyMs []float64
	closeMs   []float64
	readMs    []float64
	heapMB    float64
	truths    pptd.StreamWindowInfo // the last read after the last close
	gen       map[string]float64
}

// liveHeapMB is HeapAlloc after two forced collections: the first only
// moves sync.Pool contents to the victim cache, the second frees them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// readTruths is the campaign owner's read after a close: readsPerClose
// round trips of GET /v1/stream/truths, each checked for the window.
func (m *measured) readTruths(e *env, wantWindow int) error {
	for i := 0; i < readsPerClose; i++ {
		e.g.attempted.Add(1)
		took, err := e.g.ownerDo(http.MethodGet, "/v1/stream/truths", "loadgen.truths", &m.truths)
		if err == nil && m.truths.Window != wantWindow {
			err = fmt.Errorf("truths: window %d, want %d", m.truths.Window, wantWindow)
		}
		if err != nil {
			e.g.fail(err)
			return err
		}
		m.readMs = append(m.readMs, ms(took))
	}
	return nil
}

// measureClosed runs whole windows — ingest, then close — until the
// measurement time is used up and minWindows are in. Every device submits
// passes times per window over conns connections, each waiting for its
// ack.
func measureClosed(rc runConfig, e *env) (*measured, error) {
	lat := make([][]time.Duration, rc.conns)
	for i := range lat {
		lat[i] = make([]time.Duration, 0, rc.w.users*rc.w.passes*latencyWindows/rc.conns)
	}
	m := &measured{gen: map[string]float64{}}
	var rates []float64
	start := time.Now()
	for len(rates) < rc.minWindows || time.Since(start).Seconds() < rc.seconds {
		n, took := e.g.ingestWindow(rc.w.passes, e.window+1, lat)
		m.accepted += n
		e.claimed += int64(n * rc.w.objects)
		rates = append(rates, float64(n)/took.Seconds())
		_, closeTook, err := e.g.closeWindow(e.window+1, int64(n*rc.w.objects), rc.w.users)
		if err != nil {
			return nil, err
		}
		e.window++
		m.closeMs = append(m.closeMs, ms(closeTook))
		if err := m.readTruths(e, e.window); err != nil {
			return nil, err
		}
		if len(rates) == rc.minWindows {
			// A fixed window, not the end: the node's heap grows a little
			// with every window and the number of windows a run fits
			// depends on the machine's speed.
			m.heapMB = liveHeapMB()
		}
	}
	m.rate = stats.Median(rates)
	fmt.Fprintf(rc.log, "bench: per-window submit_per_s %.0f\nbench: per-close ms %.0f\n", rates, m.closeMs)
	for _, l := range lat {
		for _, d := range l {
			m.latencyMs = append(m.latencyMs, ms(d))
		}
	}
	m.gen["loadgen.windows"] = float64(len(rates))
	return m, nil
}

// closedWindow is one close the open-loop closer ran: its interval as
// offsets from the start of the measurement phase, and what it published.
type closedWindow struct {
	from, to time.Duration
	info     pptd.StreamWindowInfo
}

// measureOpen offers the seeded Poisson schedule regardless of how fast
// the node answers: each arrival is sent by the first free connection at
// or after its due time and its latency counts from the due time, so the
// wait a stalled node imposes on later arrivals is measured. Meanwhile a
// separate goroutine closes a window every closeEvery.
func measureOpen(rc runConfig, e *env) (*measured, error) {
	sched := e.f.schedule
	// Close k is due half a period into period k, while arrivals flow.
	dueAt := func(k int) time.Duration { return time.Duration((float64(k) + 0.5) * float64(rc.w.closeEvery)) }
	numCloses := 0
	for dueAt(numCloses).Seconds() < rc.seconds {
		numCloses++
	}
	if numCloses < rc.minWindows {
		return nil, fmt.Errorf("%.1f s fit %d closes, the run needs %d", rc.seconds, numCloses, rc.minWindows)
	}
	type sample struct {
		due, late, lat time.Duration
		window         int
	}
	samples := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()

	m := &measured{gen: map[string]float64{}}
	var closes []closedWindow
	var closeErr error
	closerDone := make(chan struct{})
	go func() {
		defer close(closerDone)
		for k := 0; k < numCloses; k++ {
			time.Sleep(time.Until(start.Add(dueAt(k))))
			from := time.Since(start)
			info, _, err := e.g.closeWindow(e.window+1+k, -1, rc.w.users)
			if err != nil {
				closeErr = err
				return
			}
			closes = append(closes, closedWindow{from: from, to: time.Since(start), info: info})
			if closeErr = m.readTruths(e, info.Window); closeErr != nil {
				return
			}
		}
	}()
	for _, conn := range e.g.conns {
		wg.Add(1)
		go func(conn *rawConn) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				window := e.g.submit(conn, int(i)%rc.w.users, 0)
				samples[i] = sample{due: sched[i], late: sent.Sub(due), lat: time.Since(due), window: window}
			}
		}(conn)
	}
	wg.Wait()
	<-closerDone
	elapsed := time.Since(start)
	if closeErr != nil {
		return nil, closeErr
	}
	// Flush the tail that arrived after the last scheduled close, so the
	// books balance and the next phase starts on an empty window. It runs
	// without load, so it is checked but not timed.
	tail, _, err := e.g.closeWindow(e.window+1+len(closes), -1, rc.w.users)
	if err != nil {
		return nil, err
	}
	if err := m.readTruths(e, tail.Window); err != nil {
		return nil, err
	}

	// What the closes published must add up to what the acks said: every
	// accepted submission names the window it joined.
	perWindow := map[int]int64{}
	m.heapMB = liveHeapMB()
	var late, inClose []float64
	for _, s := range samples {
		if s.window == 0 {
			continue
		}
		m.accepted++
		perWindow[s.window] += int64(rc.w.objects)
		m.latencyMs = append(m.latencyMs, ms(s.lat))
		late = append(late, ms(s.late))
		for _, c := range closes {
			if s.due >= c.from && s.due < c.to {
				inClose = append(inClose, ms(s.lat))
				break
			}
		}
	}
	e.claimed += int64(m.accepted * rc.w.objects)
	for _, c := range append(closes, closedWindow{info: tail}) {
		if c.info.WindowClaims != perWindow[c.info.Window] {
			err := fmt.Errorf("window %d published %d claims, acks add up to %d",
				c.info.Window, c.info.WindowClaims, perWindow[c.info.Window])
			e.g.fail(err)
			return nil, err
		}
	}
	for _, c := range closes {
		m.closeMs = append(m.closeMs, ms(c.to-c.from))
	}
	e.window += len(closes) + 1
	m.rate = float64(m.accepted) / elapsed.Seconds()
	m.gen["loadgen.late_p99_ms"] = stats.Quantile(late, 0.99)
	if len(inClose) > 0 { // a toy-sized run may see no arrival during a close
		m.gen["loadgen.in_close_p50_ms"] = stats.Quantile(inClose, 0.5)
	}
	m.gen["loadgen.windows"] = float64(len(closes))
	return m, nil
}

// run executes one workload once: set-up (timed, several times),
// measurement, the read and recovery drills, and every correctness
// check along the way. The result always carries the operation counts; a
// returned error means its metrics must not be reported.
func run(rc runConfig) (res *runResult, err error) {
	res = &runResult{e2e: map[string]float64{}, gen: map[string]float64{}}
	var e *env
	// retire stops the current deployment and folds its operation counts
	// into the result; a run with any failed operation is not a result.
	retire := func() error {
		if e == nil {
			return nil
		}
		err := e.tearDown()
		res.attempted += e.g.attempted.Load()
		res.failed += e.g.failed.Load()
		if e.g.failed.Load() > 0 {
			err = fmt.Errorf("%d of %d operations failed, first: %v", e.g.failed.Load(), e.g.attempted.Load(), e.g.firstErr)
		}
		e = nil
		return err
	}
	defer func() {
		if rerr := retire(); err == nil {
			err = rerr
		}
	}()

	var setupS []float64
	for i := 0; i < rc.setups; i++ {
		if err := retire(); err != nil {
			return res, err
		}
		runtime.GC()
		dir := filepath.Join(rc.workdir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		if e, err = setUp(rc, dir); err != nil {
			return res, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	fmt.Fprintf(rc.log, "bench: per-setup s %.2f\n", setupS)
	if err := checkAgainstBatch(e); err != nil {
		return res, err
	}

	rc.tr.enable(true)
	cpu0 := cpuSeconds()
	var m *measured
	if rc.w.rate > 0 {
		m, err = measureOpen(rc, e)
	} else {
		m, err = measureClosed(rc, e)
	}
	cpu := cpuSeconds() - cpu0
	rc.tr.enable(false)
	if err != nil {
		return res, err
	}
	if m.accepted == 0 || len(m.closeMs) == 0 {
		return res, errors.New("measurement phase accepted nothing or closed no window")
	}
	res.f = e.f
	res.e2e["setup_s"] = stats.Median(setupS)
	res.e2e["submit_per_s"] = m.rate
	res.e2e["submit_p50_ms"] = stats.Quantile(m.latencyMs, 0.5)
	res.e2e["submit_p90_ms"] = stats.Quantile(m.latencyMs, 0.9)
	res.e2e["close_ms"] = stats.Median(m.closeMs)
	res.e2e["cpu_ms_per_ksub"] = cpu * 1e3 / (float64(m.accepted) / 1e3)
	res.e2e["live_heap_mb"] = m.heapMB
	res.e2e["truths_read_ms"] = stats.Median(m.readMs)
	res.gen = m.gen
	res.gen["loadgen.submit_p99_ms"] = stats.Quantile(m.latencyMs, 0.99)
	res.gen["loadgen.submit_p999_ms"] = stats.Quantile(m.latencyMs, 0.999)

	mae, err := stats.MAE(m.truths.Truths, e.f.truth)
	if err != nil {
		return res, err
	}
	res.e2e["truth_mae"] = mae
	if !(mae <= rc.w.maeCeiling()) {
		return res, fmt.Errorf("truth MAE %v above the workload's ceiling %v", mae, rc.w.maeCeiling())
	}

	res.e2e["recover_s"], err = recoverDrill(rc, e, m.truths)
	return res, err
}
