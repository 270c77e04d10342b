package pptd_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"

	"pptd"
)

// ExampleNewNode builds the unified front door — a streaming engine
// with window history behind one HTTP mux — submits a claim, closes a
// window, and reads it back by number; a miss decodes into the typed
// ErrUnknownWindow from the wire envelope.
func ExampleNewNode() {
	node, err := pptd.NewNode(
		pptd.WithName("demo"),
		pptd.WithStreamConfig(pptd.StreamConfig{NumObjects: 1, HistoryWindows: 4}),
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

	info, _ := client.StreamTruthsAt(ctx, 1)
	fmt.Printf("window %d truth %.1f\n", info.Window, info.Truths[0])

	_, err = client.StreamTruthsAt(ctx, 42)
	fmt.Println("window 42 unknown:", errors.Is(err, pptd.ErrUnknownWindow))

	// Output:
	// window 1 truth 21.5
	// window 42 unknown: true
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
