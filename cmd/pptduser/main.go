// Command pptduser simulates a fleet of crowd sensing participants: each
// user generates original readings locally (ground truth plus personal
// sensor error), perturbs them with a privately sampled noise variance
// per Algorithm 2, and submits only the perturbed claims to a pptdserver.
//
// Usage:
//
//	pptduser -server http://localhost:8080 -users 50 -lambda1 1 -seed 7
//	pptduser -server http://localhost:8080 -users 50 -windows 5 -drift 0.2 -wire binary
//
// The fleet streams -windows windows (default 1, a one-shot campaign):
// every window the ground truth drifts by a random-walk step of -drift,
// every device re-reads it and submits a fresh perturbed release to the
// open window, and the fleet closes the window and prints its claims,
// the submissions refused because the device's privacy budget is spent,
// and the estimate's MAE against the ground truth it generated —
// something only the simulation can know.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pptd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pptduser:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pptduser", flag.ContinueOnError)
	var (
		server  = fs.String("server", "http://localhost:8080", "campaign server URL")
		users   = fs.Int("users", 50, "number of simulated users")
		lambda1 = fs.Float64("lambda1", 1, "error-variance rate of the simulated crowd")
		seed    = fs.Uint64("seed", 7, "random seed")
		timeout = fs.Duration("timeout", 60*time.Second, "overall deadline")
		windows = fs.Int("windows", 1, "number of windows to stream (1 = a one-shot campaign)")
		drift   = fs.Float64("drift", 0.2, "per-window random-walk step of the ground truth")
		wire    = fs.String("wire", pptd.WireJSON, "claim wire format, json or binary (docs/WIRE.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users <= 0 {
		return fmt.Errorf("users = %d", *users)
	}
	if *windows <= 0 {
		return fmt.Errorf("windows = %d: want at least 1", *windows)
	}
	if *wire != pptd.WireJSON && *wire != pptd.WireBinary {
		return fmt.Errorf("-wire = %q: want %q or %q", *wire, pptd.WireJSON, pptd.WireBinary)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	client, err := pptd.NewClient(*server, pptd.WithClaimWire(*wire))
	if err != nil {
		return err
	}
	info, err := client.StreamCampaign(ctx)
	if err != nil {
		return fmt.Errorf("fetch campaign: %w", err)
	}
	fmt.Fprintf(out, "joined campaign %q: %d objects, lambda2=%v, epsilon=%.4f per window, budget=%v\n",
		info.Name, info.NumObjects, info.Lambda2, info.EpsilonPerWindow, info.EpsilonBudget)

	// Simulate ground truth and per-user sensors: quality sigma^2 ~
	// Exp(lambda1), each reading the truth plus that user's error.
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
	read := func(d *device) []pptd.CampaignClaim {
		readings := make([]pptd.CampaignClaim, len(groundTruth))
		for n, tv := range groundTruth {
			readings[n] = pptd.CampaignClaim{Object: n, Value: tv + d.sigma*d.rng.Norm()}
		}
		return readings
	}
	fleet := make([]*device, *users)
	for i := range fleet {
		userRng := rng.Split()
		d := &device{rng: userRng, sigma: math.Sqrt(userRng.Exp() / *lambda1)}
		if d.user, err = pptd.NewCampaignUser(fmt.Sprintf("sim-user-%03d", i), read(d), userRng); err != nil {
			return err
		}
		fleet[i] = d
	}
	mae := func(truths []float64, covered []bool) float64 {
		var sum float64
		var n int
		for i, tv := range groundTruth {
			if covered[i] {
				sum += math.Abs(truths[i] - tv)
				n++
			}
		}
		return sum / float64(max(n, 1))
	}

	fmt.Fprintf(out, "%-7s %8s %8s %8s\n", "window", "claims", "refused", "mae")
	var totalRefused int64
	for w := 1; w <= *windows; w++ {
		// The world moves, the devices re-measure.
		for n := range groundTruth {
			groundTruth[n] += *drift * rng.Norm()
		}
		for _, d := range fleet {
			if err := d.user.SetReadings(read(d)); err != nil {
				return err
			}
		}
		var (
			wg      sync.WaitGroup
			refused atomic.Int64
		)
		errs := make([]error, len(fleet))
		for i, d := range fleet {
			wg.Add(1)
			go func(i int, u *pptd.CampaignUser) {
				defer wg.Done()
				_, err := u.ParticipateStream(ctx, client)
				if errors.Is(err, pptd.ErrBudgetExhausted) {
					refused.Add(1)
					return
				}
				errs[i] = err
			}(i, d.user)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		totalRefused += refused.Load()
		res, err := client.StreamCloseWindow(ctx)
		if err != nil {
			// A fleet the budget refused entirely leaves nothing to
			// estimate from: the budget working, not a failure.
			if refused.Load() > 0 && errors.Is(err, pptd.ErrEmptyWindow) {
				fmt.Fprintf(out, "%-7s %8d %8d %8s\n", "-", 0, refused.Load(), "-")
				continue
			}
			return err
		}
		fmt.Fprintf(out, "%-7d %8d %8d %8.4f\n", res.Window, res.WindowClaims, refused.Load(), mae(res.Truths, res.Covered))
	}
	fmt.Fprintf(out, "streamed %d windows, %d submissions refused by budget\n", *windows, totalRefused)
	return nil
}
