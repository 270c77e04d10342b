// Command pptduser simulates a fleet of crowd sensing participants: each
// user generates original readings locally (ground truth plus personal
// sensor error), perturbs them with a privately sampled noise variance
// per Algorithm 2, and submits only the perturbed claims to a pptdserver.
//
// Usage:
//
//	pptduser -server http://localhost:8080 -users 50 -lambda1 1 -seed 7
//
// After all users reported (and the server aggregated), the fleet fetches
// the result and prints the aggregate's distance from the ground truth it
// generated — something only the simulation can know.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sync"
	"time"

	"pptd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pptduser:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pptduser", flag.ContinueOnError)
	var (
		server  = fs.String("server", "http://localhost:8080", "campaign server URL")
		users   = fs.Int("users", 50, "number of simulated users")
		lambda1 = fs.Float64("lambda1", 1, "error-variance rate of the simulated crowd")
		seed    = fs.Uint64("seed", 7, "random seed")
		timeout = fs.Duration("timeout", 60*time.Second, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users <= 0 {
		return fmt.Errorf("users = %d", *users)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	client, err := pptd.NewClient(*server)
	if err != nil {
		return err
	}
	info, err := client.Campaign(ctx)
	if err != nil {
		return fmt.Errorf("fetch campaign: %w", err)
	}
	log.Printf("joined campaign %q: %d objects, lambda2=%v", info.Name, info.NumObjects, info.Lambda2)

	// Simulate ground truth and per-user readings.
	rng := pptd.NewRNG(*seed)
	groundTruth := make([]float64, info.NumObjects)
	for n := range groundTruth {
		groundTruth[n] = 10 * rng.Float64()
	}
	fleet := make([]*pptd.CampaignUser, *users)
	for i := range fleet {
		userRng := rng.Split()
		sigma := math.Sqrt(userRng.Exp() / *lambda1)
		readings := make([]pptd.CampaignClaim, info.NumObjects)
		for n, tv := range groundTruth {
			readings[n] = pptd.CampaignClaim{Object: n, Value: tv + sigma*userRng.Norm()}
		}
		u, err := pptd.NewCampaignUser(fmt.Sprintf("sim-user-%03d", i), readings, userRng)
		if err != nil {
			return err
		}
		fleet[i] = u
	}

	var wg sync.WaitGroup
	errs := make([]error, len(fleet))
	for i, u := range fleet {
		wg.Add(1)
		go func(i int, u *pptd.CampaignUser) {
			defer wg.Done()
			_, errs[i] = u.Participate(ctx, client)
		}(i, u)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("user %d: %w", i, err)
		}
	}
	log.Printf("%d users submitted perturbed readings", len(fleet))

	// Poll for the aggregate (the server may still be waiting for more
	// users if ExpectedUsers was configured above our fleet size).
	var result pptd.CampaignResult
	for {
		result, err = client.Result(ctx)
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for result: %w", ctx.Err())
		case <-time.After(500 * time.Millisecond):
		}
	}

	var mae float64
	for n, tv := range groundTruth {
		mae += math.Abs(result.Truths[n] - tv)
	}
	mae /= float64(len(groundTruth))
	log.Printf("aggregated with %s in %d iterations (converged=%v)",
		result.Method, result.Iterations, result.Converged)
	log.Printf("MAE of private aggregate vs simulated ground truth: %.4f", mae)
	return nil
}
