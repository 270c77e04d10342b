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
	"pptd/internal/synthetic"
	"pptd/internal/truth"
)

func testMethod(t *testing.T) truth.Method {
	t.Helper()
	m, err := truth.NewCRH()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return srv, client
}

func TestNewServerValidation(t *testing.T) {
	method := testMethod(t)
	tests := []struct {
		name string
		cfg  ServerConfig
	}{
		{name: "zero objects", cfg: ServerConfig{NumObjects: 0, Lambda2: 1, Method: method}},
		{name: "bad lambda2", cfg: ServerConfig{NumObjects: 1, Lambda2: 0, Method: method}},
		{name: "nan lambda2", cfg: ServerConfig{NumObjects: 1, Lambda2: math.NaN(), Method: method}},
		{name: "negative users", cfg: ServerConfig{NumObjects: 1, Lambda2: 1, ExpectedUsers: -1, Method: method}},
		{name: "nil method", cfg: ServerConfig{NumObjects: 1, Lambda2: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewServer(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestCampaignEndpoint(t *testing.T) {
	_, client := newTestServer(t, ServerConfig{
		Name:          "hallways",
		NumObjects:    7,
		Lambda2:       1.5,
		ExpectedUsers: 3,
		Method:        testMethod(t),
	})
	info, err := client.Campaign(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "hallways" || info.NumObjects != 7 || info.Lambda2 != 1.5 || info.ExpectedUsers != 3 {
		t.Fatalf("campaign info = %+v", info)
	}
	if info.SubmittedUsers != 0 || info.Aggregated {
		t.Fatalf("fresh campaign info = %+v", info)
	}
}

func TestSubmissionValidation(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{NumObjects: 2, Lambda2: 1, Method: testMethod(t)})
	tests := []struct {
		name    string
		sub     Submission
		wantErr error
	}{
		{name: "empty id", sub: Submission{Claims: []Claim{{Object: 0, Value: 1}}}, wantErr: ErrBadSubmission},
		{name: "no claims", sub: Submission{ClientID: "u"}, wantErr: ErrBadSubmission},
		{name: "bad object", sub: Submission{ClientID: "u", Claims: []Claim{{Object: 5, Value: 1}}}, wantErr: ErrBadSubmission},
		{name: "nan value", sub: Submission{ClientID: "u", Claims: []Claim{{Object: 0, Value: math.NaN()}}}, wantErr: ErrBadSubmission},
		{
			name:    "duplicate object",
			sub:     Submission{ClientID: "u", Claims: []Claim{{Object: 0, Value: 1}, {Object: 0, Value: 2}}},
			wantErr: ErrBadSubmission,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := srv.Submit(tt.sub); !errors.Is(err, tt.wantErr) {
				t.Errorf("Submit error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDuplicateClientRejected(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{NumObjects: 1, Lambda2: 1, Method: testMethod(t)})
	sub := Submission{ClientID: "phone-1", Claims: []Claim{{Object: 0, Value: 1}}}
	if _, err := srv.Submit(sub); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(sub); !errors.Is(err, ErrDuplicateClient) {
		t.Fatalf("second submission error = %v", err)
	}
}

func TestResultBeforeAggregation(t *testing.T) {
	_, client := newTestServer(t, ServerConfig{NumObjects: 1, Lambda2: 1, Method: testMethod(t)})
	_, err := client.Result(context.Background())
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.StatusCode != 404 {
		t.Fatalf("result before aggregation: %v", err)
	}
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("result before aggregation: %v does not wrap ErrNotReady", err)
	}
}

func TestAutoAggregationAtExpectedUsers(t *testing.T) {
	srv, client := newTestServer(t, ServerConfig{
		NumObjects:    2,
		Lambda2:       1,
		ExpectedUsers: 2,
		Method:        testMethod(t),
	})
	ctx := context.Background()
	r1, err := client.Submit(ctx, Submission{ClientID: "a", Claims: []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Aggregated {
		t.Fatal("aggregated after first of two users")
	}
	r2, err := client.Submit(ctx, Submission{ClientID: "b", Claims: []Claim{{Object: 0, Value: 3}, {Object: 1, Value: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Aggregated {
		t.Fatal("did not aggregate at expected user count")
	}
	res, err := client.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truths) != 2 || res.Method != "crh" {
		t.Fatalf("result = %+v", res)
	}
	if res.Truths[0] < 1 || res.Truths[0] > 3 || res.Truths[1] < 5 || res.Truths[1] > 7 {
		t.Fatalf("truths out of claim range: %v", res.Truths)
	}
	if len(res.Weights) != 2 {
		t.Fatalf("weights = %v", res.Weights)
	}
	// Campaign now closed.
	if _, err := srv.Submit(Submission{ClientID: "c", Claims: []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 1}}}); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("late submission error = %v", err)
	}
}

func TestExplicitAggregate(t *testing.T) {
	_, client := newTestServer(t, ServerConfig{NumObjects: 1, Lambda2: 1, Method: testMethod(t)})
	ctx := context.Background()
	if _, err := client.Aggregate(ctx); err == nil {
		t.Fatal("aggregate with zero submissions should fail")
	}
	if _, err := client.Submit(ctx, Submission{ClientID: "a", Claims: []Claim{{Object: 0, Value: 2}}}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Aggregate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truths[0] != 2 {
		t.Fatalf("truth = %v, want 2", res.Truths[0])
	}
	// Idempotent.
	res2, err := client.Aggregate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Truths[0] != res.Truths[0] {
		t.Fatal("aggregate not idempotent")
	}
}

func TestUserParticipatePerturbsLocally(t *testing.T) {
	_, client := newTestServer(t, ServerConfig{
		NumObjects: 3,
		Lambda2:    1000000, // tiny noise, so values stay near originals
		Method:     testMethod(t),
	})
	readings := []Claim{{Object: 0, Value: 1}, {Object: 1, Value: 2}, {Object: 2, Value: 3}}
	u, err := NewUser("phone-7", readings, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Participate(context.Background(), client); err != nil {
		t.Fatal(err)
	}
	// Readings slice must be untouched (perturbation happens on a copy).
	for i, want := range []float64{1, 2, 3} {
		if readings[i].Value != want {
			t.Fatal("Participate mutated the caller's readings")
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
	// Full Algorithm 2 over HTTP: generate a synthetic crowd, run every
	// user as a goroutine, and check the aggregate tracks the ground
	// truth despite the injected noise.
	cfg := synthetic.Default()
	cfg.NumUsers = 40
	cfg.NumObjects = 12
	cfg.Lambda1 = 4
	inst, err := synthetic.Generate(cfg, randx.New(77))
	if err != nil {
		t.Fatal(err)
	}

	_, client := newTestServer(t, ServerConfig{
		Name:          "e2e",
		NumObjects:    cfg.NumObjects,
		Lambda2:       2,
		ExpectedUsers: cfg.NumUsers,
		Method:        testMethod(t),
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
			_, errs[i] = u.Participate(ctx, client)
		}(i, u)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
	}

	res, err := client.Result(ctx)
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

func TestHTTPMethodNotAllowed(t *testing.T) {
	srv, err := NewServer(ServerConfig{NumObjects: 1, Lambda2: 1, Method: testMethod(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	tests := []struct {
		method string
		path   string
	}{
		{http.MethodPost, PathCampaign},
		{http.MethodGet, PathSubmissions},
		{http.MethodPost, PathResult},
		{http.MethodGet, PathAggregate},
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
	srv, err := NewServer(ServerConfig{NumObjects: 1, Lambda2: 1, Method: testMethod(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+PathSubmissions, "application/json", strings.NewReader("{not json"))
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

func TestHTTPLateSubmissionGone(t *testing.T) {
	srv, err := NewServer(ServerConfig{NumObjects: 1, Lambda2: 1, ExpectedUsers: 1, Method: testMethod(t)})
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
	if _, err := client.Submit(ctx, Submission{ClientID: "a", Claims: []Claim{{Object: 0, Value: 1}}}); err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, Submission{ClientID: "b", Claims: []Claim{{Object: 0, Value: 2}}})
	var httpErr *HTTPError
	if !errors.As(err, &httpErr) || httpErr.StatusCode != http.StatusGone {
		t.Fatalf("late submission error = %v, want 410", err)
	}
}
