package pptd_test

import (
	"errors"
	"fmt"
	"os"

	"pptd"
)

// ExampleNewNode_outlier drives a node's streaming engine in-process:
// perturbed claims ingest into the open window, and closing the window
// publishes an incremental truth estimate with per-user weights.
func ExampleNewNode_outlier() {
	node, err := pptd.NewNode(pptd.WithStreamConfig(pptd.StreamConfig{
		NumObjects: 2,
		NumShards:  2, // fixed so the example is deterministic everywhere
	}))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = node.Close() }()

	// Three devices report on both objects; the third is an outlier.
	submissions := []pptd.CampaignSubmission{
		{ClientID: "device-1", Claims: []pptd.CampaignClaim{{Object: 0, Value: 10.0}, {Object: 1, Value: 20.0}}},
		{ClientID: "device-2", Claims: []pptd.CampaignClaim{{Object: 0, Value: 10.2}, {Object: 1, Value: 19.8}}},
		{ClientID: "device-3", Claims: []pptd.CampaignClaim{{Object: 0, Value: 15.0}, {Object: 1, Value: 30.0}}},
	}
	for _, sub := range submissions {
		if _, err := node.Stream().Submit(sub); err != nil {
			fmt.Println(err)
			return
		}
	}
	res, err := node.Stream().CloseWindow()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("window %d converged: %v\n", res.Window, res.Converged)
	fmt.Printf("truth for object 0 is near 10: %v\n", res.Truths[0] < 11)
	fmt.Printf("outlier has the lowest weight: %v\n",
		res.Weights["device-3"] < res.Weights["device-1"] &&
			res.Weights["device-3"] < res.Weights["device-2"])
	// Output:
	// window 1 converged: true
	// truth for object 0 is near 10: true
	// outlier has the lowest weight: true
}

// ExampleNewNode_restart is the durable round trip: a node built with
// WithPersistence journals every privacy charge — and, with the claim
// WAL, the claims themselves — before it acknowledges a submission, and
// persists each published window. A node restarted on the same state
// directory serves the last estimate at once, still refuses a second
// release into a window the user already paid for, and keeps every
// returning user's cumulative budget.
func ExampleNewNode_restart() {
	dir, err := os.MkdirTemp("", "pptd-stream-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = os.RemoveAll(dir) }()

	// A budget of two windows' charges, with room for rounding.
	acct, _ := pptd.NewAccountant(1)
	mech, _ := pptd.NewMechanism(2)
	epsWindow, _ := acct.Epsilon(mech, 0.3)
	open := func() (*pptd.Node, error) {
		return pptd.NewNode(
			pptd.WithStreamConfig(pptd.StreamConfig{
				NumObjects:    1,
				NumShards:     1,
				Lambda1:       1, // enables privacy accounting
				Lambda2:       2,
				Delta:         0.3,
				EpsilonBudget: 2.5 * epsWindow,
			}),
			pptd.WithPersistence(dir), // claim WAL on
		)
	}
	submit := func(node *pptd.Node, id string, v float64) error {
		_, err := node.Stream().Submit(pptd.CampaignSubmission{
			ClientID: id, Claims: []pptd.CampaignClaim{{Object: 0, Value: v}},
		})
		return err
	}

	// First process: window 1 closes, then alice pays for window 2.
	node, err := open()
	if err != nil {
		fmt.Println(err)
		return
	}
	_ = submit(node, "alice", 1)
	_ = submit(node, "bob", 3)
	if _, err := node.Stream().CloseWindow(); err != nil {
		fmt.Println(err)
		return
	}
	_ = submit(node, "alice", 2)
	if err := node.Close(); err != nil {
		fmt.Println(err)
		return
	}

	// Second process on the same state directory.
	node, err = open()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = node.Close() }()
	last, err := node.Stream().Truths()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("served after restart: window %d truth %.1f\n", last.Window, last.Truths[0])

	// Alice's window-2 charge survived: a second release is refused.
	err = submit(node, "alice", 9)
	fmt.Println("alice resubmitting window 2:", errors.Is(err, pptd.ErrDuplicateWindow))

	if err := submit(node, "bob", 2); err != nil {
		fmt.Println(err)
		return
	}
	res, err := node.Stream().CloseWindow()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("window %d: each user charged for %d windows\n", res.Window, res.Privacy.MaxWindows)

	// Two charges spend alice's budget, the one before the restart too.
	err = submit(node, "alice", 2)
	fmt.Println("alice in window 3:", errors.Is(err, pptd.ErrBudgetExhausted))
	// Output:
	// served after restart: window 1 truth 2.0
	// alice resubmitting window 2: true
	// window 2: each user charged for 2 windows
	// alice in window 3: true
}
