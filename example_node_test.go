package pptd_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"

	"pptd"
)

// ExampleNewNode builds the unified front door — a streaming engine
// with window history behind one HTTP mux — submits a claim, closes a
// window, and reads it back by number; a miss is the typed
// ErrUnknownWindow, which the wire answers as a 404 unknown_window
// envelope.
func ExampleNewNode() {
	node, err := pptd.NewNode(
		pptd.WithName("demo"),
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1}),
	)
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	defer func() { _ = node.Close() }()

	ts := httptest.NewServer(node.Handler())
	defer ts.Close()
	client, _ := pptd.NewClient(ts.URL)
	ctx := context.Background()

	_, _ = client.StreamSubmit(ctx, pptd.CampaignSubmission{
		ClientID: "device-1",
		Claims:   []pptd.CampaignClaim{{Object: 0, Value: 21.5}},
	})
	if _, err := client.StreamCloseWindow(ctx); err != nil {
		fmt.Println("close:", err)
		return
	}

	info, _ := node.Stream().TruthsAt(1, false)
	fmt.Printf("window %d truth %.1f\n", info.Window, info.Truths[0])

	_, err = node.Stream().TruthsAt(42, false)
	fmt.Println("window 42 unknown:", errors.Is(err, pptd.ErrUnknownWindow))
	resp, err := http.Get(ts.URL + "/v1/stream/truths?window=42")
	if err != nil {
		fmt.Println("get:", err)
		return
	}
	_ = resp.Body.Close()
	fmt.Println("GET ?window=42:", resp.StatusCode, resp.Header.Get("X-Error-Code"))

	// Output:
	// window 1 truth 21.5
	// window 42 unknown: true
	// GET ?window=42: 404 unknown_window
}

// ExampleNewNode_validation shows the option matrix refusing a
// half-configured node with a typed error instead of a silent default.
func ExampleNewNode_validation() {
	_, err := pptd.NewNode(
		// A budget without any accounting.
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 10, EpsilonBudget: 5}),
	)
	fmt.Println(errors.Is(err, pptd.ErrNodeConfig))
	// Output:
	// true
}

// ExampleNewNode_privacyTarget configures a node for a per-window
// privacy target (eps, delta): the accountant (Theorem 4.8) turns the
// target and the data-quality rate lambda1 into the perturbation rate
// lambda2, and StreamConfig carries all three rates.
func ExampleNewNode_privacyTarget() {
	const lambda1, eps, delta = 1.5, 0.5, 0.3
	acct, err := pptd.NewAccountant(lambda1)
	if err != nil {
		fmt.Println("accountant:", err)
		return
	}
	mech, err := acct.MechanismForEpsilon(eps, delta)
	if err != nil {
		fmt.Println("mechanism:", err)
		return
	}
	node, err := pptd.NewNode(pptd.WithStreamConfig(pptd.StreamConfig{
		NumObjects: 10,
		Lambda1:    lambda1,
		Lambda2:    mech.Lambda2(),
		Delta:      delta,
	}))
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	defer func() { _ = node.Close() }()

	info := node.Stream().Campaign()
	fmt.Printf("lambda2 %.4g, epsilon per window %.4g\n", info.Lambda2, info.EpsilonPerWindow)
	// Output:
	// lambda2 0.01488, epsilon per window 0.5
}
