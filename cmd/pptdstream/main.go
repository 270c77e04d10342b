// Command pptdstream is a load generator and driver for the streaming
// truth-discovery engine: it runs a streaming campaign server (or
// targets an external one), simulates a fleet of devices that take fresh
// readings of a drifting ground truth every window, perturb them locally
// (Algorithm 2's client side), and submit concurrently, then closes
// windows and reports per-window accuracy, ingest throughput, estimation
// latency, and each window's cumulative privacy spending.
//
// Usage:
//
//	pptdstream -objects 20 -users 50 -windows 5 -shards 4 \
//	    -lambda1 1.5 -lambda2 2 -delta 0.3 -budget 0 -decay 1 -drift 0.2 \
//	    -state-dir /var/lib/pptd -window-interval 0 \
//	    -claim-wal -snapshot-every 1 -segment-bytes 0 -commit-batch 0
//
// With -budget > 0 users are cut off once their cumulative epsilon would
// exceed the cap; the driver reports how many submissions were refused.
// With -state-dir the in-process server journals every privacy charge
// (fsync'd before the submission is acknowledged; concurrent submissions
// share group-commit batches — cap them with -commit-batch)
// and, via -claim-wal (on by default), the submission's claims in the
// same record, persists each window's published result, and snapshots
// the engine per -snapshot-every/-snapshot-bytes, so re-running against
// the same directory resumes cumulative budgets, statistics, and the
// last estimate instead of resetting them. -window-interval additionally
// closes windows on a ticker, the way a deployment without an external
// window driver would run. -max-resident-users / -resident-bytes cap the
// engine's resident per-user state (requires -state-dir: idle users are
// spilled to the store at window close and re-admitted on their next
// claim), and -churn rotates in a fresh fleet of device IDs every window
// — together they demonstrate bounded memory under unbounded ID churn.
// -wire binary submits claims as the compact CRC32-checked binary frame
// (docs/WIRE.md) instead of JSON, and -arrival-rate R switches the
// driver from closed-loop (every device at once) to an open-loop
// Poisson arrival process offering R submissions/s regardless of how
// fast the server keeps up. See README.md next to this file for the
// full flag reference and a kill-and-recover transcript.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pptd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pptdstream:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pptdstream", flag.ContinueOnError)
	var (
		objects     = fs.Int("objects", 20, "number of micro-tasks (objects)")
		users       = fs.Int("users", 50, "number of simulated devices")
		windows     = fs.Int("windows", 5, "number of windows to stream")
		shards      = fs.Int("shards", 0, "engine shards (0 = auto)")
		method      = fs.String("method", "crh", "streaming truth-discovery estimator: crh, gtm, or catd")
		lambda1     = fs.Float64("lambda1", 1.5, "simulated sensor quality (error-variance rate)")
		lambda2     = fs.Float64("lambda2", 2, "perturbation rate released to users")
		delta       = fs.Float64("delta", 0.3, "LDP delta each window is accounted at")
		budget      = fs.Float64("budget", 0, "cumulative epsilon cap per user (0 = track only)")
		decay       = fs.Float64("decay", 1, "per-window retention factor in (0,1]")
		drift       = fs.Float64("drift", 0.2, "per-window random-walk step of the ground truth")
		seed        = fs.Uint64("seed", 1, "deterministic seed for the simulated fleet")
		addr        = fs.String("addr", "", "external streaming server base URL (empty = run one in-process)")
		stateDir    = fs.String("state-dir", "", "durable state directory for the in-process server: privacy-ledger journal + engine snapshots (empty = in-memory only)")
		interval    = fs.Duration("window-interval", 0, "auto window-close ticker for the in-process server (0 = driver-closed windows only)")
		perUser     = fs.Bool("per-user-report", false, "opt the full per-user epsilon map into privacy reports (default: aggregates only)")
		claimWAL    = fs.Bool("claim-wal", true, "journal each submission's claims with its charge (with -state-dir), so statistics survive a crash as well as budgets do")
		segBytes    = fs.Int64("segment-bytes", 0, "size cap per journal segment file; compaction deletes covered segments whole (0 = default 4 MiB)")
		snapEvery   = fs.Int("snapshot-every", 1, "write an engine snapshot every Nth window close (with -state-dir)")
		snapBytes   = fs.Int64("snapshot-bytes", 0, "force a snapshot once the journal exceeds this many bytes (0 = no size trigger)")
		commitBatch = fs.Int("commit-batch", 0, "max journal records per group-commit fsync (0 = default 256, 1 = fsync per append)")
		maxResident = fs.Int("max-resident-users", 0, "cap on users kept resident in memory; idle users (no live sufficient statistics — needs -decay < 1 to ever happen) spill to -state-dir at window close and re-admit on their next claim (0 = unbounded)")
		resBytes    = fs.Int64("resident-bytes", 0, "approximate byte budget for resident per-user state, an alternative cap to -max-resident-users (0 = unbounded)")
		churn       = fs.Bool("churn", false, "rotate in a fresh fleet of device IDs every window, so the distinct-user population grows without bound — the workload residency caps exist for")
		wire        = fs.String("wire", pptd.WireJSON, "claim submission wire format: json (default) or binary (length-prefixed CRC32-checked frames under Content-Type application/x-pptd-claims; see docs/WIRE.md)")
		arrival     = fs.Float64("arrival-rate", 0, "open-loop mode: offered load in submissions/s, Poisson (exponential) inter-arrival spacing across the fleet; 0 = closed-loop (every device submits at once per window)")
		maxBody     = fs.Int64("max-request-bytes", 0, "in-process server's POST body cap in bytes; oversized bodies get the 413 payload_too_large envelope (0 = the 16 MiB default)")
		requestID   = fs.String("request-id", "", "pin this X-Request-ID on every request (empty = a fresh random ID per request); the server echoes it, correlating this run in the node's logs")
		benchOut    = fs.String("bench-out", "", "write a BENCH_*.json performance artifact (throughput, submit/close latency p50/p99/p999) to this path")
		metricsOut  = fs.String("metrics-out", "", "after the run, scrape the server's GET /metrics and write the exposition to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *windows <= 0 || *users <= 0 {
		return errors.New("need positive -windows and -users")
	}
	if *addr != "" && (*stateDir != "" || *interval != 0) {
		return errors.New("-state-dir and -window-interval configure the in-process server; they cannot apply to an external -addr")
	}
	if *snapEvery < 0 || *snapBytes < 0 || *segBytes < 0 {
		return fmt.Errorf("negative persistence flags (-snapshot-every %d, -snapshot-bytes %d, -segment-bytes %d)",
			*snapEvery, *snapBytes, *segBytes)
	}
	if (*maxResident > 0 || *resBytes > 0) && *stateDir == "" {
		return errors.New("-max-resident-users and -resident-bytes need -state-dir: evicted users spill their budget and estimator state to the store")
	}
	if *wire != pptd.WireJSON && *wire != pptd.WireBinary {
		return fmt.Errorf("-wire = %q: want %q or %q", *wire, pptd.WireJSON, pptd.WireBinary)
	}
	if *arrival < 0 {
		return fmt.Errorf("-arrival-rate = %v: want 0 (closed-loop) or a positive submissions/s rate", *arrival)
	}
	if *maxBody < 0 {
		return fmt.Errorf("-max-request-bytes = %d: want 0 (default) or a positive cap", *maxBody)
	}
	if *maxBody > 0 && *addr != "" {
		return errors.New("-max-request-bytes configures the in-process server; it cannot apply to an external -addr")
	}

	estimator, err := methodByName(*method)
	if err != nil {
		return err
	}

	baseURL := *addr
	if baseURL == "" {
		// One front door: the in-process server is a pptd node. The engine
		// flags map onto StreamConfig fields; the rest are node options.
		nodeOpts := []pptd.Option{
			pptd.WithName("pptdstream"),
			pptd.WithMethod(estimator),
			pptd.WithStreamConfig(pptd.StreamConfig{
				NumObjects:    *objects,
				NumShards:     *shards,
				Decay:         *decay,
				Lambda1:       *lambda1,
				Lambda2:       *lambda2,
				Delta:         *delta,
				EpsilonBudget: *budget,
				PerUserReport: *perUser,
				// The node wires its store in as the UserStore, so the
				// caps work without further plumbing here.
				MaxResidentUsers: *maxResident,
				ResidentBytes:    *resBytes,
			}),
		}
		if *interval > 0 {
			nodeOpts = append(nodeOpts, pptd.WithWindowInterval(*interval))
		}
		if *maxBody > 0 {
			nodeOpts = append(nodeOpts, pptd.WithMaxRequestBytes(*maxBody))
		}
		if *stateDir != "" {
			popts := []pptd.PersistenceOption{
				pptd.WithGroupCommit(*commitBatch),
			}
			if *snapEvery > 0 {
				popts = append(popts, pptd.WithSnapshotEvery(*snapEvery))
			}
			if *snapBytes > 0 {
				popts = append(popts, pptd.WithSnapshotBytes(*snapBytes))
			}
			if *segBytes > 0 {
				popts = append(popts, pptd.WithSegmentBytes(*segBytes))
			}
			if !*claimWAL {
				popts = append(popts, pptd.WithoutClaimWAL())
			}
			nodeOpts = append(nodeOpts, pptd.WithPersistence(*stateDir, popts...))
		}
		node, err := pptd.NewNode(nodeOpts...)
		if err != nil {
			return err
		}
		defer func() { _ = node.Close() }()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: node.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = httpSrv.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(ctx)
		}()
		baseURL = "http://" + ln.Addr().String()
	}

	var clientOpts []pptd.ClientOption
	if *requestID != "" {
		clientOpts = append(clientOpts, pptd.WithRequestID(*requestID))
	}
	clientOpts = append(clientOpts, pptd.WithClaimWire(*wire))
	client, err := pptd.NewClient(baseURL, clientOpts...)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	info, err := client.StreamCampaign(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "streaming campaign %q at %s: %d objects, %d shards, estimator=%s, lambda2=%v\n",
		info.Name, baseURL, info.NumObjects, info.Shards, estimatorLabel(info.Estimator), info.Lambda2)
	if info.EpsilonPerWindow > 0 {
		fmt.Fprintf(out, "privacy: epsilon=%.4f per window at delta=%v, budget=%v\n",
			info.EpsilonPerWindow, info.Delta, budgetLabel(info.EpsilonBudget))
	}

	// Simulated fleet: per-device quality sigma_s^2 ~ Exp(lambda1), fresh
	// readings of a drifting ground truth every window.
	rng := pptd.NewRNG(*seed)
	groundTruth := make([]float64, info.NumObjects)
	for n := range groundTruth {
		groundTruth[n] = 10 * rng.Float64()
	}
	type device struct {
		user  *pptd.CampaignUser
		rng   *pptd.RNG
		sigma float64
	}
	fleet := make([]*device, *users)
	for i := range fleet {
		userRng := rng.Split()
		d := &device{rng: userRng, sigma: math.Sqrt(userRng.Exp() / *lambda1)}
		readings := takeReadings(groundTruth, d.sigma, userRng)
		u, err := pptd.NewCampaignUser(fmt.Sprintf("device-%03d", i), readings, userRng)
		if err != nil {
			return err
		}
		d.user = u
		fleet[i] = d
	}

	fmt.Fprintf(out, "%-7s %9s %8s %10s %9s %5s %8s %9s %9s\n",
		"window", "claims", "refused", "claims/s", "est-ms", "iters", "mae", "max-eps", "exhaust")
	perf := newPerfTracker()
	var totalRefused int64
	// writeArtifacts runs on every successful exit path — a starved fleet
	// is still a run worth recording.
	writeArtifacts := func() error {
		if *benchOut != "" {
			cfg := BenchConfig{
				Users: *users, Objects: info.NumObjects, Windows: *windows,
				Shards: info.Shards, Durable: *stateDir != "",
				EpsilonBudget:    info.EpsilonBudget,
				MaxResidentUsers: *maxResident, Churn: *churn,
				Wire: *wire, ArrivalRate: *arrival,
			}
			if err := perf.writeBenchReport(*benchOut, cfg, totalRefused); err != nil {
				return err
			}
			fmt.Fprintf(out, "bench artifact written to %s\n", *benchOut)
		}
		if *metricsOut != "" {
			if err := scrapeToFile(baseURL, *metricsOut); err != nil {
				return err
			}
			fmt.Fprintf(out, "metrics exposition written to %s\n", *metricsOut)
		}
		return nil
	}
	for w := 1; w <= *windows; w++ {
		// The world moves, the devices re-measure.
		for n := range groundTruth {
			groundTruth[n] += *drift * rng.Norm()
		}
		for i, d := range fleet {
			readings := takeReadings(groundTruth, d.sigma, d.rng)
			if *churn && w > 1 {
				// Churn mode: this window's fleet is a brand-new set of
				// device IDs. Every window adds -users distinct users, so
				// only a residency cap keeps the server's memory bounded.
				u, err := pptd.NewCampaignUser(fmt.Sprintf("device-w%02d-%03d", w, i), readings, d.rng)
				if err != nil {
					return err
				}
				d.user = u
			} else if err := d.user.SetReadings(readings); err != nil {
				return err
			}
		}

		var (
			wg      sync.WaitGroup
			refused atomic.Int64
			fatal   atomic.Value
		)
		start := time.Now()
		for _, d := range fleet {
			if *arrival > 0 {
				// Open-loop mode: arrivals are spaced by an exponential
				// inter-arrival draw (a Poisson process at -arrival-rate),
				// independent of how fast earlier submissions complete —
				// the driver offers load, it does not wait for capacity.
				time.Sleep(time.Duration(rng.Exp() / *arrival * float64(time.Second)))
			}
			wg.Add(1)
			go func(d *device) {
				defer wg.Done()
				submitStart := time.Now()
				if _, err := d.user.ParticipateStream(ctx, client); err != nil {
					// The client decodes the envelope's budget_exhausted
					// code into the typed sentinel.
					if errors.Is(err, pptd.ErrBudgetExhausted) {
						refused.Add(1)
						return
					}
					fatal.Store(err)
					return
				}
				perf.observeSubmit(time.Since(submitStart))
			}(d)
		}
		wg.Wait()
		ingestDur := time.Since(start)
		if err, ok := fatal.Load().(error); ok {
			return err
		}
		totalRefused += refused.Load()

		estStart := time.Now()
		res, err := client.StreamCloseWindow(ctx)
		if err != nil {
			// A fully-refused fleet can leave the window empty; that is
			// the budget doing its job, not a driver failure.
			if refused.Load() > 0 && errors.Is(err, pptd.ErrEmptyWindow) {
				fmt.Fprintf(out, "%-7s %9d %8d %10s %9s %5s %8s %9s %9s\n",
					"-", 0, refused.Load(), "-", "-", "-", "-", "-", "-")
				continue
			}
			return err
		}
		estDur := time.Since(estStart)
		perf.observeWindow(res.WindowClaims, ingestDur, estDur)

		var mae float64
		var covered int
		for n, tv := range groundTruth {
			if n < len(res.Covered) && res.Covered[n] {
				mae += math.Abs(res.Truths[n] - tv)
				covered++
			}
		}
		if covered > 0 {
			mae /= float64(covered)
		}
		maxEps, exhausted := "-", "-"
		if res.Privacy != nil {
			maxEps = fmt.Sprintf("%.4f", res.Privacy.MaxCumulative)
			exhausted = fmt.Sprintf("%d", res.Privacy.ExhaustedUsers)
		}
		fmt.Fprintf(out, "%-7d %9d %8d %10.0f %9.2f %5d %8.4f %9s %9s\n",
			res.Window, res.WindowClaims, refused.Load(),
			float64(res.WindowClaims)/ingestDur.Seconds(),
			float64(estDur.Microseconds())/1000, res.Iterations, mae, maxEps, exhausted)
	}

	final, err := client.StreamTruths(ctx)
	if err != nil {
		// The server answers 404 (ErrNotReady) while no window has ever
		// closed; with a starved fleet that is the budget working.
		if totalRefused > 0 && errors.Is(err, pptd.ErrNotReady) {
			fmt.Fprintf(out, "stream done: no window ever closed — all %d submissions refused by budget\n", totalRefused)
			return writeArtifacts()
		}
		return err
	}
	fmt.Fprintf(out, "stream done: %d windows, %d claims total, %d submissions refused by budget\n",
		final.Window, final.TotalClaims, totalRefused)
	if final.Privacy != nil {
		fmt.Fprintf(out, "cumulative privacy: max per-user epsilon %.4f (delta %.4g) over %d windows across %d tracked users\n",
			final.Privacy.MaxCumulative, final.Privacy.CumulativeDelta,
			final.Privacy.MaxWindows, final.Privacy.TrackedUsers)
	}
	// Group-commit observability: on a durable server the stats endpoint
	// reports how well concurrent submissions amortized their fsyncs and
	// what each flush cost — the tuning data for -commit-batch.
	if stats, err := client.StreamStats(ctx); err == nil && stats.Durable && stats.Store != nil {
		st := stats.Store
		ratio := float64(st.JournalAppends)
		if st.JournalSyncs > 0 {
			ratio /= float64(st.JournalSyncs)
		}
		fmt.Fprintf(out, "durable ingest: %d journal appends over %d fsyncs (%.1f appends/sync), %d bytes live in %d segments (%d sealed, %d compacted away), %d snapshots, %d results\n",
			st.JournalAppends, st.JournalSyncs, ratio, st.JournalBytes, st.Segments,
			st.SegmentsSealed, st.SegmentsDeleted, st.Snapshots, st.ResultsSaved)
		fmt.Fprintf(out, "group-commit batch sizes: %s\n", st.BatchSizes)
		fmt.Fprintf(out, "flush latency: mean %.2fms, p99<=%.2fms, max %.2fms\n",
			st.FlushLatencySeconds.Mean()*1e3, st.FlushLatencySeconds.Quantile(0.99)*1e3,
			st.FlushLatencySeconds.Max*1e3)
		if stats.MaxResidentUsers > 0 || st.UserSpills > 0 {
			cap := "unbounded"
			if stats.MaxResidentUsers > 0 {
				cap = fmt.Sprintf("%d", stats.MaxResidentUsers)
			}
			fmt.Fprintf(out, "residency: %d users resident (cap %s), %d evictions spilled, %d re-admissions, %d users in spill file\n",
				stats.ResidentUsers, cap, st.UserSpills, st.UserLoads, st.SpilledUsers)
		}
		fmt.Fprintf(out, "history: windows %d..%d answerable via GET %s?window=N\n",
			stats.HistoryOldest, stats.Window, "/v1/stream/truths")
	}
	fmt.Fprintln(out, "the server only ever saw perturbed claims; no original reading left a device.")
	return writeArtifacts()
}

// driverLatencyBounds buckets the driver-observed round-trip latencies
// (submit and window close): 100µs to 10s.
var driverLatencyBounds = []float64{
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// perfTracker accumulates the driver-side performance view of a run —
// per-submission and per-window-close round-trip latencies plus ingest
// throughput — the numbers -bench-out records as one BENCH_*.json
// trajectory point.
type perfTracker struct {
	mu            sync.Mutex
	submit        pptd.MetricsHistogram
	windowClose   pptd.MetricsHistogram
	claims        int64
	ingestSeconds float64
}

func newPerfTracker() *perfTracker {
	return &perfTracker{
		submit:      pptd.NewMetricsHistogram(driverLatencyBounds),
		windowClose: pptd.NewMetricsHistogram(driverLatencyBounds),
	}
}

func (p *perfTracker) observeSubmit(d time.Duration) {
	p.mu.Lock()
	p.submit.Observe(d.Seconds())
	p.mu.Unlock()
}

func (p *perfTracker) observeWindow(claims int64, ingest, estimate time.Duration) {
	p.mu.Lock()
	p.claims += claims
	p.ingestSeconds += ingest.Seconds()
	p.windowClose.Observe(estimate.Seconds())
	p.mu.Unlock()
}

// BenchLatency summarizes one latency histogram inside the artifact.
// Quantiles are upper-bounded within their histogram bucket.
type BenchLatency struct {
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"meanSeconds"`
	P50Seconds  float64 `json:"p50Seconds"`
	P99Seconds  float64 `json:"p99Seconds"`
	P999Seconds float64 `json:"p999Seconds"`
	MaxSeconds  float64 `json:"maxSeconds"`
}

// BenchConfig records the run shape alongside its numbers, so trajectory
// points are only compared like for like.
type BenchConfig struct {
	Users            int     `json:"users"`
	Objects          int     `json:"objects"`
	Windows          int     `json:"windows"`
	Shards           int     `json:"shards"`
	Durable          bool    `json:"durable"`
	EpsilonBudget    float64 `json:"epsilonBudget"`
	MaxResidentUsers int     `json:"maxResidentUsers,omitempty"`
	Churn            bool    `json:"churn,omitempty"`
	Wire             string  `json:"wire,omitempty"`
	ArrivalRate      float64 `json:"arrivalRate,omitempty"`
}

// BenchReport is the BENCH_*.json artifact -bench-out writes: one
// recorded point of the performance trajectory.
type BenchReport struct {
	Name                 string       `json:"name"`
	Timestamp            string       `json:"timestamp"`
	Wire                 string       `json:"wire"`
	Config               BenchConfig  `json:"config"`
	Submissions          int64        `json:"submissions"`
	RefusedSubmissions   int64        `json:"refusedSubmissions"`
	Claims               int64        `json:"claims"`
	IngestSeconds        float64      `json:"ingestSeconds"`
	ClaimsPerSecond      float64      `json:"claimsPerSecond"`
	SubmissionsPerSecond float64      `json:"submissionsPerSecond"`
	SubmitLatency        BenchLatency `json:"submitLatency"`
	WindowCloseLatency   BenchLatency `json:"windowCloseLatency"`
}

func summarizeLatency(h *pptd.MetricsHistogram) BenchLatency {
	return BenchLatency{
		Count:       h.Count,
		MeanSeconds: h.Mean(),
		P50Seconds:  h.Quantile(0.5),
		P99Seconds:  h.Quantile(0.99),
		P999Seconds: h.Quantile(0.999),
		MaxSeconds:  h.Max,
	}
}

func (p *perfTracker) writeBenchReport(path string, cfg BenchConfig, refused int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := BenchReport{
		Name:               "stream_ingest",
		Timestamp:          time.Now().UTC().Format(time.RFC3339),
		Wire:               wireLabel(cfg.Wire),
		Config:             cfg,
		Submissions:        p.submit.Count,
		RefusedSubmissions: refused,
		Claims:             p.claims,
		IngestSeconds:      p.ingestSeconds,
		SubmitLatency:      summarizeLatency(&p.submit),
		WindowCloseLatency: summarizeLatency(&p.windowClose),
	}
	if p.ingestSeconds > 0 {
		rep.ClaimsPerSecond = float64(p.claims) / p.ingestSeconds
		rep.SubmissionsPerSecond = float64(p.submit.Count) / p.ingestSeconds
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// scrapeToFile dumps the server's Prometheus exposition to a file — the
// raw material for CI series assertions and offline inspection.
func scrapeToFile(baseURL, path string) error {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// takeReadings simulates one round of sensing: the ground truth observed
// through the device's Gaussian error.
func takeReadings(groundTruth []float64, sigma float64, rng *pptd.RNG) []pptd.CampaignClaim {
	readings := make([]pptd.CampaignClaim, len(groundTruth))
	for n, tv := range groundTruth {
		readings[n] = pptd.CampaignClaim{Object: n, Value: tv + sigma*rng.Norm()}
	}
	return readings
}

// methodByName maps the -method flag onto a streaming estimator. Only
// the incremental methods are valid here: the mean/median baselines are
// batch-only (see cmd/pptdserver).
func methodByName(name string) (pptd.Method, error) {
	switch name {
	case "crh":
		return pptd.NewCRH()
	case "gtm":
		return pptd.NewGTM()
	case "catd":
		return pptd.NewCATD()
	}
	return nil, fmt.Errorf("unknown -method %q (streaming estimators: crh, gtm, catd)", name)
}

// estimatorLabel names the campaign's estimator; a pre-estimator server
// omits the field, which means CRH.
func estimatorLabel(name string) string {
	if name == "" {
		return "crh"
	}
	return name
}

// wireLabel normalizes the -wire flag for the artifact: an empty value
// (an old caller constructing BenchConfig directly) means JSON.
func wireLabel(w string) string {
	if w == "" {
		return pptd.WireJSON
	}
	return w
}

func budgetLabel(b float64) string {
	if b <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.4f", b)
}
