// Networked: the full crowd sensing system over a real HTTP boundary, in
// one process — a campaign node on a loopback port and a fleet of
// concurrent user goroutines that perturb locally and submit only noisy
// claims, exactly as Algorithm 2 prescribes. The one-shot campaign is
// one window: the fleet submits, then the window closes and the node
// publishes its weighted estimate.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"pptd"
)

const (
	defaultFleetSize  = 60
	defaultNumObjects = 20
	lambda1           = 1.5 // simulated sensor quality
	lambda2           = 2.0 // server-released perturbation rate
	delta             = 0.3 // LDP delta each window is accounted at
)

func main() {
	if err := run(defaultFleetSize, defaultNumObjects); err != nil {
		log.Fatal(err)
	}
}

func run(fleetSize, numObjects int) error {
	// Campaign node running CRH, the default estimator. Accounting (the
	// rates the privacy accountant assumes) charges each device once and
	// refuses a second submission into the window.
	node, err := pptd.NewNode(
		pptd.WithName("networked-demo"),
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: numObjects, Lambda1: lambda1, Delta: delta}),
		pptd.WithLambda2(lambda2),
	)
	if err != nil {
		return err
	}
	defer func() { _ = node.Close() }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: node.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if serveErr := httpSrv.Serve(ln); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			log.Print("server: ", serveErr)
		}
	}()
	defer func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	baseURL := "http://" + ln.Addr().String()
	fmt.Println("campaign server listening on", baseURL)

	// Simulated ground truth, shared by the fleet generator only.
	rng := pptd.NewRNG(99)
	groundTruth := make([]float64, numObjects)
	for n := range groundTruth {
		groundTruth[n] = 10 * rng.Float64()
	}

	client, err := pptd.NewClient(baseURL)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, fleetSize)
	for i := 0; i < fleetSize; i++ {
		userRng := rng.Split()
		sigma := math.Sqrt(userRng.Exp() / lambda1)
		readings := make([]pptd.CampaignClaim, numObjects)
		for n, tv := range groundTruth {
			readings[n] = pptd.CampaignClaim{Object: n, Value: tv + sigma*userRng.Norm()}
		}
		user, err := pptd.NewCampaignUser(fmt.Sprintf("device-%02d", i), readings, userRng)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, u *pptd.CampaignUser) {
			defer wg.Done()
			_, errs[i] = u.ParticipateStream(ctx, client)
		}(i, user)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
	}
	fmt.Printf("%d devices submitted perturbed readings concurrently\n", fleetSize)

	result, err := client.StreamCloseWindow(ctx)
	if err != nil {
		return err
	}
	var mae float64
	for n, tv := range groundTruth {
		mae += math.Abs(result.Truths[n] - tv)
	}
	mae /= float64(numObjects)
	fmt.Printf("server aggregated with %s (%d iterations, converged=%v)\n",
		result.Estimator, result.Iterations, result.Converged)
	fmt.Printf("MAE of the private aggregate vs ground truth: %.4f\n", mae)
	fmt.Println("the server never saw an original reading or any user's noise variance.")
	return nil
}
