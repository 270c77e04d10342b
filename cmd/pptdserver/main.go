// Command pptdserver runs a crowd sensing node: it publishes a campaign
// (number of micro-tasks plus the perturbation rate lambda2), collects
// perturbed submissions from pptduser clients into windows, and serves
// each window's truth-discovery estimate — one front door built with
// pptd.NewNode. A one-shot campaign is one window: submit, then POST
// /v1/stream/window. -method picks the estimator (crh, gtm or catd);
// the mean and median baselines run offline only, in cmd/pptd and the
// internal/eval experiments. Per-user privacy accounting is on by
// default (-lambda1 1.5, -delta 0.3): each device submits once per
// window, a second submission is refused with duplicate_window, and
// -budget caps each user's cumulative epsilon. -lambda1 0 -delta 0 turns
// it off and leaves a plain streaming aggregator that folds repeat
// submissions in; it serves from memory only, since without accounting
// nothing is journaled per submission.
//
// Usage:
//
//	pptdserver -addr :8080 -objects 30 -lambda2 2 -method gtm
//	pptdserver -addr :8080 -objects 30 -lambda2 2 -window-interval 30s
//	pptdserver -addr :8080 -objects 30 -lambda2 2 -budget 100 \
//	    -state-dir /var/lib/pptd -max-resident-users 10000 -decay 0.9
//
// A sharded cluster is the same binary in two roles: -worker hosts one
// shard's engine (durable with -state-dir, replicated with -ship-to),
// and -coordinator routes each user to the worker owning it and runs
// the cluster's window closes. Every process takes the same engine
// flags (-objects, -lambda1/2, -delta, -budget, -decay, -method); the
// coordinator checks them against each worker at startup.
//
//	pptdserver -addr :9001 -worker -state-dir /var/lib/w1 -ship-to /backup/w1
//	pptdserver -addr :9002 -worker -state-dir /var/lib/w2
//	pptdserver -addr :8080 -coordinator http://w1:9001,http://w2:9002
//
// With -state-dir the node is durable: the engine journals each
// submission's charge and claims before its receipt, persists every
// window result and snapshots its statistics. -max-resident-users
// bounds the engine's memory under ID churn by spilling idle users to
// the store (idle means no live sufficient statistics, so pair it with
// -decay < 1).
//
// Every node serves its Prometheus metrics at GET /metrics. -log text
// (or json) adds one structured request log line per request on stderr,
// and -debug mounts net/http/pprof under /debug/pprof/. See
// docs/OBSERVABILITY.md for the metric catalog and logging fields.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"pptd"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pptdserver:", err)
		os.Exit(1)
	}
}

// run serves the node until ctx is cancelled (SIGINT in main) or the
// listener fails. Its error includes whatever Node.Close reports — a
// failed final snapshot or the window ticker's retained error — so a
// shutdown that loses state exits non-zero.
func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("pptdserver", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		name     = fs.String("name", "campaign", "campaign name")
		objects  = fs.Int("objects", 30, "number of micro-tasks (objects)")
		lambda2  = fs.Float64("lambda2", 2, "noise-variance rate released to users")
		method   = fs.String("method", "crh", "truth-discovery estimator: crh, gtm or catd (the mean and median baselines run offline, in cmd/pptd and internal/eval)")
		interval = fs.Duration("window-interval", 0, "close windows on this ticker (0 = manual POST /v1/stream/window)")
		decay    = fs.Float64("decay", 1, "per-window retention factor in (0,1]; eviction under -max-resident-users needs decay < 1, since users with live sufficient statistics are pinned resident")
		lambda1  = fs.Float64("lambda1", 1.5, "error-variance rate the privacy accountant assumes; 0 (with -delta 0) turns per-user epsilon accounting off")
		delta    = fs.Float64("delta", 0.3, "LDP delta each window is accounted at")
		budget   = fs.Float64("budget", 0, "cumulative epsilon cap per user (needs accounting); an exhausted user gets 429 (0 = track only)")
		stateDir = fs.String("state-dir", "", "durable state directory: the engine journals each submission before its receipt and snapshots (needs accounting; empty = in-memory only)")
		maxRes   = fs.Int("max-resident-users", 0, "with -state-dir: cap on users kept resident in memory; idle users spill to the store at window close and re-admit on their next claim (0 = unbounded)")
		worker   = fs.Bool("worker", false, "serve the engine as a cluster shard worker (the coordinator drives window closes)")
		coord    = fs.String("coordinator", "", "comma-separated worker base URLs: run as the cluster's front door instead of hosting an engine (no -state-dir or residency cap)")
		shipTo   = fs.String("ship-to", "", "with -state-dir: replicate the durable state into this directory (a local archive or a mounted volume; URLs are refused)")
		maxBody  = fs.Int64("max-request-bytes", 0, "cap on any POST request body in bytes; oversized bodies get the 413 payload_too_large envelope (0 = the 16 MiB default)")
		logReqs  = fs.String("log", "", "per-request structured logging: 'text' or 'json' slog lines on stderr (empty = off; metrics at /metrics either way)")
		debug    = fs.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ (exposes operational internals; keep off public listeners)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	estimator, err := estimatorByName(*method)
	if err != nil {
		return err
	}
	opts := []pptd.Option{
		pptd.WithName(*name),
		pptd.WithStreamConfig(pptd.StreamConfig{
			NumObjects:       *objects,
			Estimator:        estimator,
			Decay:            *decay,
			Lambda1:          *lambda1,
			Lambda2:          *lambda2,
			Delta:            *delta,
			EpsilonBudget:    *budget,
			MaxResidentUsers: *maxRes,
		}),
	}
	if *coord != "" {
		opts = append(opts, pptd.WithClusterCoordinator(strings.Split(*coord, ",")...))
	}
	if *interval < 0 {
		return fmt.Errorf("-window-interval = %v: want 0 (manual closes) or a positive interval", *interval)
	}
	if *interval > 0 {
		opts = append(opts, pptd.WithWindowInterval(*interval))
	}
	if !(*lambda2 > 0) {
		return fmt.Errorf("-lambda2 = %v: devices perturb with it, so it must be positive", *lambda2)
	}
	if *maxBody < 0 {
		return fmt.Errorf("-max-request-bytes = %d: want 0 (default) or a positive cap", *maxBody)
	}
	if *maxBody > 0 {
		opts = append(opts, pptd.WithMaxRequestBytes(*maxBody))
	}
	switch *logReqs {
	case "":
	case "text":
		opts = append(opts, pptd.WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	case "json":
		opts = append(opts, pptd.WithLogger(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	default:
		return fmt.Errorf("-log = %q: want 'text', 'json', or empty", *logReqs)
	}
	if *debug {
		opts = append(opts, pptd.WithDebugHandlers())
	}
	if *stateDir != "" && *lambda1 <= 0 {
		return errors.New("-state-dir needs accounting (-lambda1 > 0): without it nothing is journaled per submission, so a crash before the close would lose acknowledged claims")
	}
	if *maxRes > 0 && *stateDir == "" {
		return errors.New("-max-resident-users needs -state-dir: evicted users spill their budget and carry weight to the store")
	}
	if *worker {
		opts = append(opts, pptd.WithClusterWorker())
	}
	if *stateDir != "" {
		opts = append(opts, pptd.WithPersistence(*stateDir))
	}
	if *shipTo != "" {
		opts = append(opts, pptd.WithSegmentShipping(*shipTo))
	}
	node, err := pptd.NewNode(opts...)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, node.Close()) }()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           node.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		role := "node"
		switch {
		case *coord != "":
			role = "cluster coordinator"
		case *worker:
			role = "cluster worker"
		}
		log.Printf("campaign %q: %d objects, lambda2=%v, estimator=%s, %s listening on %s",
			*name, *objects, *lambda2, estimator, role, *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutdownCtx)
	}
}

// estimatorByName maps -method onto StreamConfig.Estimator.
func estimatorByName(name string) (string, error) {
	switch name {
	case pptd.StreamEstimatorCRH, pptd.StreamEstimatorGTM, pptd.StreamEstimatorCATD:
		return name, nil
	case "mean", "median":
		return "", fmt.Errorf("-method %s: the %s baseline runs offline only (cmd/pptd -method %s, or the internal/eval experiments); a node serves crh, gtm or catd", name, name, name)
	default:
		return "", errors.New("unknown method " + name)
	}
}
