// Command pptdserver runs a crowd sensing node: it publishes a campaign
// (number of micro-tasks plus the perturbation rate lambda2), collects
// perturbed submissions from pptduser clients, aggregates with truth
// discovery once the expected number of users reported, and serves the
// result. With -stream it additionally hosts the streaming campaign on
// the same address — one front door for both APIs, built with
// pptd.NewNode. -lambda1 and -delta turn on the stream's per-user
// privacy accounting and -budget caps each user's cumulative epsilon.
//
// Usage:
//
//	pptdserver -addr :8080 -objects 30 -lambda2 2 -users 50 -method crh
//	pptdserver -addr :8080 -objects 30 -lambda2 2 -stream -window-interval 30s
//	pptdserver -addr :8080 -objects 30 -lambda2 2 -stream \
//	    -lambda1 1.5 -delta 0.3 -budget 100 \
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
// With -state-dir the node is durable: batch submissions are WAL'd
// before their receipt and the aggregated result is persisted before it
// is published, so a restarted server keeps its duplicate guard and
// result; with -stream the engine additionally journals privacy charges
// and snapshots its statistics. -max-resident-users bounds the streaming
// engine's memory under ID churn by spilling idle users to the store
// (idle means no live sufficient statistics, so pair it with -decay < 1).
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pptdserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pptdserver", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		name     = fs.String("name", "campaign", "campaign name")
		objects  = fs.Int("objects", 30, "number of micro-tasks (objects)")
		lambda2  = fs.Float64("lambda2", 2, "noise-variance rate released to users")
		users    = fs.Int("users", 0, "auto-aggregate after this many users (0 = manual)")
		method   = fs.String("method", "crh", "truth discovery method: crh, gtm, catd, mean, median (with -stream the same method runs the streaming estimator, so mean/median are batch-only)")
		stream   = fs.Bool("stream", false, "also host the streaming campaign (same objects) on the same mux")
		interval = fs.Duration("window-interval", 0, "with -stream: close stream windows on this ticker (0 = manual POST /v1/stream/window)")
		decay    = fs.Float64("decay", 1, "with -stream: per-window retention factor in (0,1]; eviction under -max-resident-users needs decay < 1, since users with live sufficient statistics are pinned resident")
		lambda1  = fs.Float64("lambda1", 0, "with -stream: error-variance rate the privacy accountant assumes; > 0 turns on per-user epsilon accounting (needs -delta)")
		delta    = fs.Float64("delta", 0, "with -stream and -lambda1: LDP delta each window is accounted at")
		budget   = fs.Float64("budget", 0, "with -stream and -lambda1: cumulative epsilon cap per user; an exhausted user gets 429 (0 = track only)")
		stateDir = fs.String("state-dir", "", "durable state directory: the batch campaign WALs submissions and persists its result; with -stream the engine journals privacy charges and snapshots (empty = in-memory only)")
		maxRes   = fs.Int("max-resident-users", 0, "with -stream and -state-dir: cap on users kept resident in memory; idle users spill to the store at window close and re-admit on their next claim (0 = unbounded)")
		worker   = fs.Bool("worker", false, "serve the streaming engine as a cluster shard worker (implies -stream; the coordinator drives window closes)")
		coord    = fs.String("coordinator", "", "comma-separated worker base URLs: run as the cluster's streaming front door instead of hosting an engine (no batch campaign, -state-dir or residency cap)")
		shipTo   = fs.String("ship-to", "", "with -state-dir: replicate the durable state to this directory, or to a follower's http(s):// base URL")
		maxBody  = fs.Int64("max-request-bytes", 0, "cap on any POST request body in bytes; oversized bodies get the 413 payload_too_large envelope (0 = the 16 MiB default)")
		logReqs  = fs.String("log", "", "per-request structured logging: 'text' or 'json' slog lines on stderr (empty = off; metrics at /metrics either way)")
		debug    = fs.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ (exposes operational internals; keep off public listeners)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	streaming := *stream || *worker || *coord != ""
	if !streaming && (*interval != 0 || *decay != 1 || *lambda1 != 0 || *delta != 0 || *budget != 0) {
		return errors.New("-window-interval, -decay, -lambda1, -delta and -budget need -stream")
	}
	if *users < 0 {
		return fmt.Errorf("-users = %d: want 0 (manual aggregation) or a positive trigger", *users)
	}

	td, err := methodByName(*method)
	if err != nil {
		return err
	}
	opts := []pptd.Option{
		pptd.WithName(*name),
		pptd.WithLambda2(*lambda2),
		pptd.WithMethod(td),
	}
	if *coord == "" {
		// The coordinator holds no engine or durable state of its own, so
		// it serves the streaming API only.
		opts = append(opts, pptd.WithBatchCampaign(*objects))
	} else {
		opts = append(opts, pptd.WithClusterCoordinator(strings.Split(*coord, ",")...))
	}
	if *users > 0 {
		opts = append(opts, pptd.WithExpectedUsers(*users))
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
	if *maxRes > 0 && (!streaming || *stateDir == "") {
		return errors.New("-max-resident-users needs -stream and -state-dir: evicted users spill their budget and carry weight to the store")
	}
	if streaming {
		opts = append(opts, pptd.WithStreamConfig(pptd.StreamConfig{
			NumObjects:       *objects,
			Decay:            *decay,
			Lambda1:          *lambda1,
			Delta:            *delta,
			EpsilonBudget:    *budget,
			MaxResidentUsers: *maxRes,
		}))
		if *interval > 0 {
			opts = append(opts, pptd.WithWindowInterval(*interval))
		}
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
	defer func() { _ = node.Close() }()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           node.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		apis := "batch API"
		switch {
		case *coord != "":
			apis = "cluster coordinator streaming API"
		case *worker:
			apis = "batch + cluster worker streaming APIs"
		case *stream:
			apis = "batch + streaming APIs"
		}
		log.Printf("campaign %q: %d objects, lambda2=%v, method=%s, %s listening on %s",
			*name, *objects, *lambda2, td.Name(), apis, *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		return nil
	}
}

func methodByName(name string) (pptd.Method, error) {
	switch name {
	case "crh":
		return pptd.NewCRH()
	case "gtm":
		return pptd.NewGTM()
	case "catd":
		return pptd.NewCATD()
	case "mean":
		return pptd.MeanBaseline(), nil
	case "median":
		return pptd.MedianBaseline(), nil
	default:
		return nil, errors.New("unknown method " + name)
	}
}
