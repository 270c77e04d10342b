package pptd_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pptd"
	"pptd/internal/obs/obstest"
)

// newWireNode starts a node hosting the streaming campaign with privacy
// accounting on, plus (as a cluster worker) the cluster RPC routes —
// every POST route family in one front door.
func newWireNode(t *testing.T, extra ...pptd.Option) *httptest.Server {
	t.Helper()
	opts := append([]pptd.Option{
		pptd.WithName("wire-test"),
		pptd.WithStreamConfig(pptd.StreamConfig{
			NumObjects: 4,
			NumShards:  2,
			Lambda1:    1.5,
			Lambda2:    2,
			Delta:      0.3,
		}),
	}, extra...)
	n, err := pptd.NewNode(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	})
	return ts
}

// TestCrossWireEquivalence drives the same submissions through two
// identical nodes — one client on the JSON wire, one on the binary
// frame — and demands indistinguishable outcomes: identical receipts,
// window results within 1e-9, and identical ingest counters on
// /metrics. The wire format is transport, never semantics.
func TestCrossWireEquivalence(t *testing.T) {
	ctx := context.Background()
	type run struct {
		wire     string
		receipts []pptd.StreamReceipt
		truths   []float64
		metrics  *obstest.ParsedMetrics
	}
	runs := make([]*run, 0, 2)
	for _, wire := range []string{pptd.WireJSON, pptd.WireBinary} {
		ts := newWireNode(t)
		client, err := pptd.NewClient(ts.URL, pptd.WithClaimWire(wire))
		if err != nil {
			t.Fatal(err)
		}
		r := &run{wire: wire}
		for u := 0; u < 5; u++ {
			sub := pptd.CampaignSubmission{ClientID: fmt.Sprintf("device-%d", u)}
			for o := 0; o < 4; o++ {
				sub.Claims = append(sub.Claims, pptd.CampaignClaim{
					Object: o, Value: float64(u)*0.25 + float64(o)*1.5,
				})
			}
			receipt, err := client.StreamSubmit(ctx, sub)
			if err != nil {
				t.Fatalf("%s wire: submit %d: %v", wire, u, err)
			}
			r.receipts = append(r.receipts, receipt)
		}
		res, err := client.StreamCloseWindow(ctx)
		if err != nil {
			t.Fatalf("%s wire: close window: %v", wire, err)
		}
		r.truths = res.Truths

		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		p, err := obstest.ParseText(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatalf("%s wire: parse /metrics: %v", wire, err)
		}
		r.metrics = p
		runs = append(runs, r)
	}

	jsonRun, binRun := runs[0], runs[1]
	for i := range jsonRun.receipts {
		if jsonRun.receipts[i] != binRun.receipts[i] {
			t.Errorf("receipt %d differs across wires: json %+v, binary %+v",
				i, jsonRun.receipts[i], binRun.receipts[i])
		}
	}
	if len(jsonRun.truths) != len(binRun.truths) {
		t.Fatalf("truths length differs: %d vs %d", len(jsonRun.truths), len(binRun.truths))
	}
	for o := range jsonRun.truths {
		if math.Abs(jsonRun.truths[o]-binRun.truths[o]) > 1e-9 {
			t.Errorf("object %d truth differs across wires: %v vs %v",
				o, jsonRun.truths[o], binRun.truths[o])
		}
	}
	for _, series := range []struct {
		name   string
		labels []string
	}{
		{"pptd_stream_claims_ingested_total", nil},
		{"pptd_http_requests_total", []string{"route", "/v1/stream/claims", "method", "POST", "code", "200"}},
	} {
		jv, jerr := jsonRun.metrics.Value(series.name, series.labels...)
		bv, berr := binRun.metrics.Value(series.name, series.labels...)
		if jerr != nil || berr != nil {
			t.Fatalf("%s%v: json err %v, binary err %v", series.name, series.labels, jerr, berr)
		}
		if jv != bv {
			t.Errorf("%s%v differs across wires: json %v, binary %v", series.name, series.labels, jv, bv)
		}
	}
}

// TestMaxRequestBytes413 aims an oversized body at each POST route
// family — stream claims (both wires), batch submissions, and the
// cluster close RPC — and requires the 413 payload_too_large envelope
// from every one of them, plus the typed sentinel from the client.
func TestMaxRequestBytes413(t *testing.T) {
	const cap = 4096
	ts := newWireNode(t, pptd.WithMaxRequestBytes(cap), pptd.WithClusterWorker())

	big := strings.Repeat("x", 2*cap)
	post := func(path, contentType, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	assert413 := func(label string, resp *http.Response) {
		t.Helper()
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413", label, resp.StatusCode)
		}
		var body pptd.APIErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: decode envelope: %v", label, err)
		}
		if body.Code != "payload_too_large" {
			t.Errorf("%s: envelope code = %q, want payload_too_large", label, body.Code)
		}
	}

	assert413("stream claims (json)", post("/v1/stream/claims", "application/json",
		`{"clientId":"`+big+`","claims":[{"object":0,"value":1}]}`))
	// A frame whose header promises a payload past the cap: the decoder
	// must surface the body-cap hit as 413, not a generic bad frame.
	bigFrame := append([]byte("PTDC\x01"), byte(2*cap&0xFF), byte(2*cap>>8), 0, 0, 0, 0, 0, 0)
	bigFrame = append(bigFrame, big...)
	assert413("stream claims (binary)", post("/v1/stream/claims", pptd.ContentTypeClaims, string(bigFrame)))
	assert413("cluster close", post("/v1/cluster/close", "application/json",
		`{"window":1,"junk":"`+big+`"}`))

	// The client decodes the envelope into the typed sentinel.
	client, err := pptd.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	sub := pptd.CampaignSubmission{ClientID: "big-batch"}
	for o := 0; o < 4; o++ {
		sub.Claims = append(sub.Claims, pptd.CampaignClaim{Object: o, Value: 1})
	}
	sub.ClientID += strings.Repeat("x", 2*cap)
	if _, err := client.StreamSubmit(context.Background(), sub); !errors.Is(err, pptd.ErrPayloadTooLarge) {
		t.Errorf("oversized StreamSubmit err = %v, want ErrPayloadTooLarge", err)
	}

	// A binary frame within the cap still works on the capped node.
	okClient, err := pptd.NewClient(ts.URL, pptd.WithClaimWire(pptd.WireBinary))
	if err != nil {
		t.Fatal(err)
	}
	small := pptd.CampaignSubmission{ClientID: "small"}
	for o := 0; o < 4; o++ {
		small.Claims = append(small.Claims, pptd.CampaignClaim{Object: o, Value: float64(o)})
	}
	receipt, err := okClient.StreamSubmit(context.Background(), small)
	if err != nil {
		t.Fatalf("in-cap binary submit on capped node: %v", err)
	}
	if receipt.Accepted != 4 {
		t.Errorf("accepted = %d, want 4", receipt.Accepted)
	}
}

// TestWireFrameContentTypeNegotiation checks the server-side switch: a
// JSON body under the binary content type is a 400 bad frame, and a
// binary frame under the default JSON decoder is a 400 bad request —
// never a misparse.
func TestWireFrameContentTypeNegotiation(t *testing.T) {
	ts := newWireNode(t)
	for _, tc := range []struct {
		label       string
		contentType string
		body        string
	}{
		{"json body, binary content type", pptd.ContentTypeClaims, `{"clientId":"a","claims":[{"object":0,"value":1}]}`},
		{"garbage, binary content type", pptd.ContentTypeClaims + ";v=1", "not a frame"},
	} {
		resp, err := http.Post(ts.URL+"/v1/stream/claims", tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body pptd.APIErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: decode envelope: %v", tc.label, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || body.Code != "bad_request" {
			t.Errorf("%s: got status %d code %q, want 400 bad_request", tc.label, resp.StatusCode, body.Code)
		}
	}
}
