package crowd

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pptd/internal/randx"
	"pptd/internal/stats"
	"pptd/internal/stream"
	"pptd/internal/synthetic"
)

// accountedEngine is a stream configuration with privacy accounting on:
// one submission per user per window.
func accountedEngine(numObjects int) stream.Config {
	return stream.Config{NumObjects: numObjects, Lambda1: 1.5, Lambda2: 2, Delta: 0.3}
}

// TestNewServerValidation: a stream server refuses the configuration
// errors the one-shot campaign used to: no objects, a bad perturbation
// rate, a negative user cap, and a method the stream cannot run.
func TestNewServerValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  StreamServerConfig
	}{
		{name: "zero objects", cfg: StreamServerConfig{Engine: stream.Config{NumObjects: 0, Lambda2: 1}}},
		{name: "bad lambda2", cfg: StreamServerConfig{Engine: stream.Config{NumObjects: 1, Lambda2: -1}}},
		{name: "nan lambda2", cfg: StreamServerConfig{Engine: stream.Config{NumObjects: 1, Lambda2: math.NaN()}}},
		{name: "negative users", cfg: StreamServerConfig{Engine: stream.Config{NumObjects: 1, Lambda2: 1, MaxResidentUsers: -1}}},
		{name: "nil method", cfg: StreamServerConfig{Engine: stream.Config{NumObjects: 1, Lambda2: 1, Estimator: "median"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewStreamServer(tt.cfg); !errors.Is(err, stream.ErrBadConfig) {
				t.Errorf("invalid config accepted: %v", err)
			}
		})
	}
}

// TestCampaignEndpoint: the campaign metadata a device joins with.
func TestCampaignEndpoint(t *testing.T) {
	_, client := newStreamFixture(t, StreamServerConfig{
		Name:   "hallways",
		Engine: stream.Config{NumObjects: 7, Lambda2: 1.5, Estimator: stream.EstimatorGTM},
	})
	info, err := client.StreamCampaign(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "hallways" || info.NumObjects != 7 || info.Lambda2 != 1.5 || info.Estimator != stream.EstimatorGTM {
		t.Fatalf("campaign info = %+v", info)
	}
	if info.Window != 0 || info.TotalClaims != 0 {
		t.Fatalf("fresh campaign info = %+v", info)
	}
}

// TestSubmissionValidation: malformed submissions are refused as bad
// claims (400 on the wire) before anything is ingested. The accounted
// engine also refuses a second claim on one object: one release per
// object per window.
func TestSubmissionValidation(t *testing.T) {
	srv, _ := newStreamFixture(t, StreamServerConfig{Engine: accountedEngine(2)})
	tests := []struct {
		name string
		sub  Submission
	}{
		{name: "empty id", sub: Submission{Claims: []Claim{{Object: 0, Value: 1}}}},
		{name: "no claims", sub: Submission{ClientID: "u"}},
		{name: "bad object", sub: Submission{ClientID: "u", Claims: []Claim{{Object: 5, Value: 1}}}},
		{name: "nan value", sub: Submission{ClientID: "u", Claims: []Claim{{Object: 0, Value: math.NaN()}}}},
		{name: "duplicate object", sub: Submission{ClientID: "u", Claims: []Claim{{Object: 0, Value: 1}, {Object: 0, Value: 2}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := srv.Submit(tt.sub); !errors.Is(err, stream.ErrBadClaim) {
				t.Errorf("Submit error = %v, want ErrBadClaim", err)
			}
		})
	}
	if got := srv.Campaign().TotalClaims; got != 0 {
		t.Fatalf("refused submissions ingested %d claims", got)
	}
}

// TestDuplicateClientRejected: one submission per client per window.
func TestDuplicateClientRejected(t *testing.T) {
	srv, _ := newStreamFixture(t, StreamServerConfig{Engine: accountedEngine(1)})
	sub := Submission{ClientID: "phone-1", Claims: []Claim{{Object: 0, Value: 1}}}
	if _, err := srv.Submit(sub); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(sub); !errors.Is(err, stream.ErrDuplicateWindow) {
		t.Fatalf("second submission error = %v", err)
	}
}

// TestResultBeforeAggregation: truths before the first close are a
// missing resource, 404 not_ready.
func TestResultBeforeAggregation(t *testing.T) {
	_, client := newStreamFixture(t, StreamServerConfig{Engine: stream.Config{NumObjects: 1, Lambda2: 1}})
	_, err := client.StreamTruths(context.Background())
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.StatusCode != 404 {
		t.Fatalf("truths before the first close: %v", err)
	}
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("truths before the first close: %v does not wrap ErrNotReady", err)
	}
}

// TestExplicitAggregate: closing an empty window is refused; closing one
// with a submission publishes its estimate, which truths then serve.
func TestExplicitAggregate(t *testing.T) {
	_, client := newStreamFixture(t, StreamServerConfig{Engine: stream.Config{NumObjects: 1, Lambda2: 1}})
	ctx := context.Background()
	if _, err := client.StreamCloseWindow(ctx); !errors.Is(err, stream.ErrEmptyWindow) {
		t.Fatalf("close with zero submissions: err = %v, want ErrEmptyWindow", err)
	}
	if _, err := client.StreamSubmit(ctx, Submission{ClientID: "a", Claims: []Claim{{Object: 0, Value: 2}}}); err != nil {
		t.Fatal(err)
	}
	res, err := client.StreamCloseWindow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Window != 1 || res.Truths[0] != 2 {
		t.Fatalf("window %d truth = %v, want window 1 truth 2", res.Window, res.Truths[0])
	}
	latest, err := client.StreamTruths(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Window != 1 || latest.Truths[0] != res.Truths[0] {
		t.Fatalf("served window %d truth %v, closed window 1 truth %v", latest.Window, latest.Truths[0], res.Truths[0])
	}
}

// TestUserParticipatePerturbsLocally: the device perturbs a copy, never
// the caller's readings, and what reaches the server is near them.
func TestUserParticipatePerturbsLocally(t *testing.T) {
	srv, client := newStreamFixture(t, StreamServerConfig{
		Engine: stream.Config{NumObjects: 3, Lambda2: 1000000}, // tiny noise, so values stay near originals
	})
	readings := []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}, {Object: 2, Value: 3}}
	u, err := NewUser("phone-7", readings, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.ParticipateStream(context.Background(), client); err != nil {
		t.Fatal(err)
	}
	// Readings slice must be untouched (perturbation happens on a copy).
	for i, want := range []float64{1, 2, 3} {
		if readings[i].Value != want {
			t.Fatal("ParticipateStream mutated the caller's readings")
		}
	}
	res, err := srv.CloseWindow()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if got := res.Truths[i]; got == want || math.Abs(got-want) > 0.1 {
			t.Fatalf("truth[%d] = %v: want a perturbed value near %v", i, got, want)
		}
	}
}

func TestNewUserValidation(t *testing.T) {
	rng := randx.New(1)
	if _, err := NewUser("", []Claim{{Object: 0, Value: 1}}, rng); !errors.Is(err, ErrBadClient) {
		t.Error("empty id accepted")
	}
	if _, err := NewUser("u", nil, rng); !errors.Is(err, ErrBadClient) {
		t.Error("no readings accepted")
	}
	if _, err := NewUser("u", []Claim{{Object: 0, Value: 1}}, nil); !errors.Is(err, ErrBadClient) {
		t.Error("nil rng accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(""); !errors.Is(err, ErrBadClient) {
		t.Error("empty URL accepted")
	}
	if _, err := NewClient("http://x", WithHTTPClient(nil)); !errors.Is(err, ErrBadClient) {
		t.Error("nil http client accepted")
	}
}

func TestEndToEndCampaignConcurrentUsers(t *testing.T) {
	// Full Algorithm 2 over HTTP as one window: generate a synthetic
	// crowd, run every user as a goroutine, close the window, and check
	// the aggregate tracks the ground truth despite the injected noise.
	cfg := synthetic.Default()
	cfg.NumUsers = 40
	cfg.NumObjects = 12
	cfg.Lambda1 = 4
	inst, err := synthetic.Generate(cfg, randx.New(77))
	if err != nil {
		t.Fatal(err)
	}

	_, client := newStreamFixture(t, StreamServerConfig{
		Name:   "e2e",
		Engine: stream.Config{NumObjects: cfg.NumObjects, Lambda2: 2},
	})

	seedRng := randx.New(78)
	users := make([]*User, cfg.NumUsers)
	for s := 0; s < cfg.NumUsers; s++ {
		obs, err := inst.Dataset.UserObservations(s)
		if err != nil {
			t.Fatal(err)
		}
		claims := make([]Claim, len(obs))
		for i, o := range obs {
			claims[i] = Claim{Object: o.Object, Value: o.Value}
		}
		u, err := NewUser(userID(s), claims, seedRng.Split())
		if err != nil {
			t.Fatal(err)
		}
		users[s] = u
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, len(users))
	for i, u := range users {
		wg.Add(1)
		go func(i int, u *User) {
			defer wg.Done()
			_, errs[i] = u.ParticipateStream(ctx, client)
		}(i, u)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
	}

	res, err := client.StreamCloseWindow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mae, err := stats.MAE(res.Truths, inst.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	if mae > 0.5 {
		t.Fatalf("end-to-end MAE vs ground truth = %v", mae)
	}
	if len(res.Weights) != cfg.NumUsers {
		t.Fatalf("got %d weights", len(res.Weights))
	}
}

func TestHTTPErrorFormatting(t *testing.T) {
	e := &HTTPError{StatusCode: 409}
	if e.Error() == "" {
		t.Error("empty error string")
	}
	e2 := &HTTPError{StatusCode: 400, Message: "nope"}
	if e2.Error() == e.Error() {
		t.Error("message not included")
	}
}

func userID(s int) string {
	return "user-" + string(rune('a'+s%26)) + "-" + string(rune('0'+s/26))
}

// newStreamHTTP serves a one-object stream server on a test listener.
func newStreamHTTP(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := NewStreamServer(StreamServerConfig{Engine: stream.Config{NumObjects: 1, Lambda2: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return ts
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	ts := newStreamHTTP(t)

	tests := []struct {
		method string
		path   string
	}{
		{http.MethodPost, PathStreamCampaign},
		{http.MethodGet, PathStreamClaims},
		{http.MethodPost, PathStreamTruths},
		{http.MethodGet, PathStreamWindow},
	}
	for _, tt := range tests {
		req, err := http.NewRequest(tt.method, ts.URL+tt.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tt.method, tt.path, resp.StatusCode)
		}
	}
}

func TestHTTPMalformedSubmissionBody(t *testing.T) {
	ts := newStreamHTTP(t)

	resp, err := http.Post(ts.URL+PathStreamClaims, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Message == "" {
		t.Error("error body empty")
	}
}

// TestHTTPLateSubmissionGone: a submission after the server shut its
// engine down is 410 engine_closed.
func TestHTTPLateSubmissionGone(t *testing.T) {
	srv, err := NewStreamServer(StreamServerConfig{Engine: stream.Config{NumObjects: 1, Lambda2: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.StreamSubmit(ctx, Submission{ClientID: "a", Claims: []Claim{{Object: 0, Value: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = client.StreamSubmit(ctx, Submission{ClientID: "b", Claims: []Claim{{Object: 0, Value: 2}}})
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusGone || httpErr.Code != CodeEngineClosed {
		t.Fatalf("late submission error = %v, want 410 engine_closed", err)
	}
}
