package pptd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pptd"
)

const (
	parityDevices = 40
	parityObjects = 12
	parityLambda2 = 2
	parityTol     = 1e-9

	// The accounting rates of a one-shot campaign: pptdserver's
	// -lambda1 and -delta defaults.
	oneShotLambda1 = 1.5
	oneShotDelta   = 0.3
)

// parityFleet returns a seeded fleet's perturbed submissions: every
// device reads every object with its own error level and perturbs the
// readings under one variance sampled from Exp(lambda2), as Algorithm 2
// prescribes.
func parityFleet(t *testing.T) []pptd.CampaignSubmission {
	t.Helper()
	rng := pptd.NewRNG(38)
	mech, err := pptd.NewMechanism(parityLambda2)
	if err != nil {
		t.Fatal(err)
	}
	truths := make([]float64, parityObjects)
	for o := range truths {
		truths[o] = 20 + 10*rng.Float64()
	}
	subs := make([]pptd.CampaignSubmission, parityDevices)
	for d := range subs {
		sigma := 0.2 + 2*rng.Float64()
		p := mech.NewUserPerturber(rng)
		claims := make([]pptd.CampaignClaim, parityObjects)
		for o := range claims {
			claims[o] = pptd.CampaignClaim{Object: o, Value: p.Perturb(truths[o] + sigma*rng.Norm())}
		}
		subs[d] = pptd.CampaignSubmission{ClientID: fmt.Sprintf("device-%02d", d), Claims: claims}
	}
	return subs
}

// parityResult is the published part of one estimate: truths by object
// and weights by client ID.
type parityResult struct {
	Truths  []float64          `json:"truths"`
	Weights map[string]float64 `json:"weights"`
}

func postJSON(t *testing.T, url string, body any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

// oneWindowResult runs the fleet through one window of a stream node
// over HTTP: every device submits, the window closes, and the published
// truths are read back with the window's weights.
func oneWindowResult(t *testing.T, url string, subs []pptd.CampaignSubmission) parityResult {
	t.Helper()
	for _, sub := range subs {
		postJSON(t, url+"/v1/stream/claims", sub)
	}
	postJSON(t, url+"/v1/stream/window", nil)
	resp, err := http.Get(url + "/v1/stream/truths?weights=1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET truths: status %d", resp.StatusCode)
	}
	var res parityResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// readParityGolden parses the golden into one result per estimator.
func readParityGolden(t *testing.T, path string) map[string]parityResult {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	out := make(map[string]parityResult)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("golden line %q", line)
		}
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		res := out[fields[0]]
		switch fields[1] {
		case "truth":
			res.Truths = append(res.Truths, v)
		case "weight":
			if res.Weights == nil {
				res.Weights = make(map[string]float64)
			}
			res.Weights[fields[2]] = v
		default:
			t.Fatalf("golden line %q", line)
		}
		out[fields[0]] = res
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOneWindowReproducesBatch holds a one-window stream campaign to
// what the retired batch campaign published for a seeded fleet:
// testdata/batch-parity.golden holds the batch server's truths and
// per-device weights for CRH, GTM and CATD, captured before the batch
// server was deleted and never regenerated since. Every value must match
// within 1e-9. The node runs the one-shot recipe of docs/API.md, with
// accounting on as pptdserver runs it by default: the charge does not
// move the estimate. The batch routes are gone: each answers the
// not_found envelope.
func TestOneWindowReproducesBatch(t *testing.T) {
	subs := parityFleet(t)
	want := readParityGolden(t, filepath.Join("testdata", "batch-parity.golden"))
	for _, name := range []string{pptd.StreamEstimatorCRH, pptd.StreamEstimatorGTM, pptd.StreamEstimatorCATD} {
		t.Run(name, func(t *testing.T) {
			node, err := pptd.NewNode(pptd.WithStreamConfig(pptd.StreamConfig{
				NumObjects: parityObjects, Lambda2: parityLambda2, Estimator: name,
				Lambda1: oneShotLambda1, Delta: oneShotDelta,
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = node.Close() }()
			srv := httptest.NewServer(node.Handler())
			defer srv.Close()

			got, w := oneWindowResult(t, srv.URL, subs), want[name]
			if len(got.Truths) != parityObjects || len(w.Truths) != parityObjects {
				t.Fatalf("%d truths, golden %d", len(got.Truths), len(w.Truths))
			}
			for o := range w.Truths {
				if d := math.Abs(got.Truths[o] - w.Truths[o]); d > parityTol {
					t.Errorf("truth[%d] = %v, golden %v (|diff| %g)", o, got.Truths[o], w.Truths[o], d)
				}
			}
			if len(got.Weights) != parityDevices || len(w.Weights) != parityDevices {
				t.Fatalf("%d weights, golden %d", len(got.Weights), len(w.Weights))
			}
			for id, wv := range w.Weights {
				if d := math.Abs(got.Weights[id] - wv); d > parityTol {
					t.Errorf("weight[%s] = %v, golden %v (|diff| %g)", id, got.Weights[id], wv, d)
				}
			}

			for _, ep := range []struct{ method, path string }{
				{http.MethodGet, "/v1/campaign"},
				{http.MethodPost, "/v1/submissions"},
				{http.MethodGet, "/v1/result"},
				{http.MethodPost, "/v1/aggregate"},
			} {
				checkEnvelope(t, doReq(t, ep.method, srv.URL+ep.path, ""), http.StatusNotFound, "not_found", 0)
			}
		})
	}
}

// TestDurableOneShotCampaign pins what a durable one-shot campaign
// promises a device. With accounting on (pptdserver's default), a second
// submission into the window is refused with duplicate_window, and an
// acknowledged submission survives a crash before the close: restarted
// from the directory as the crash left it, the node still refuses the
// device and its close publishes every acknowledged claim. Without
// accounting the node is a plain streaming aggregator, which NewNode
// accepts (pptdserver refuses it with -state-dir): the repeat folds in,
// and nothing is journaled per submission, so the crashed window is
// lost and the close finds it empty.
func TestDurableOneShotCampaign(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       pptd.StreamConfig
		accounted bool
	}{
		{"accounted", pptd.StreamConfig{NumObjects: 2, Lambda1: oneShotLambda1, Delta: oneShotDelta}, true},
		{"unaccounted", pptd.StreamConfig{NumObjects: 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(dir string) (string, func()) {
				t.Helper()
				node, err := pptd.NewNode(pptd.WithStreamConfig(tc.cfg), pptd.WithLambda2(parityLambda2), pptd.WithPersistence(dir))
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(node.Handler())
				return srv.URL, func() { srv.Close(); _ = node.Close() }
			}
			submit := func(url, device string) *http.Response {
				return doReq(t, http.MethodPost, url+"/v1/stream/claims",
					fmt.Sprintf(`{"clientId":%q,"claims":[{"object":0,"value":1.5},{"object":1,"value":-2}]}`, device))
			}

			dir, crashed := t.TempDir(), t.TempDir()
			url, stop := serve(dir)
			for _, device := range []string{"a", "b"} {
				resp := submit(url, device)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("submit %s: status %d", device, resp.StatusCode)
				}
			}
			repeat := submit(url, "a")
			if tc.accounted {
				checkEnvelope(t, repeat, http.StatusConflict, "duplicate_window", 1)
			} else if _ = repeat.Body.Close(); repeat.StatusCode != http.StatusOK {
				t.Fatalf("unaccounted repeat: status %d, want it folded in", repeat.StatusCode)
			}
			copyStateDir(t, dir, crashed) // what a kill -9 leaves on disk now
			stop()

			url, stop = serve(crashed)
			defer stop()
			if !tc.accounted {
				checkEnvelope(t, doReq(t, http.MethodPost, url+"/v1/stream/window", ""), http.StatusConflict, "empty_window", 0)
				return
			}
			checkEnvelope(t, submit(url, "a"), http.StatusConflict, "duplicate_window", 1)
			resp := doReq(t, http.MethodPost, url+"/v1/stream/window", "")
			defer func() { _ = resp.Body.Close() }()
			var info pptd.StreamWindowInfo
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("close after the crash: status %d, %v", resp.StatusCode, err)
			}
			if info.Window != 1 || info.ActiveUsers != 2 || info.WindowClaims != 4 {
				t.Errorf("close after the crash: window %d, %d users, %d claims; want window 1, 2 users, 4 claims",
					info.Window, info.ActiveUsers, info.WindowClaims)
			}
		})
	}
}

// copyStateDir copies a live node's state directory file by file: every
// acknowledged record is already written, so the copy is the directory a
// crash at this point leaves behind.
func copyStateDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
