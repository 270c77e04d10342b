package pptd_test

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pptd"
	"pptd/internal/obs/obstest"
)

func TestNodeClusterOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []pptd.Option
		want string
	}{
		{
			name: "cluster worker needs a stream engine",
			opts: []pptd.Option{pptd.WithLambda2(1), pptd.WithClusterWorker()},
			want: "configure a stream engine",
		},
		{
			name: "cluster worker vs window interval",
			opts: []pptd.Option{pptd.WithStreamEngine(3), pptd.WithClusterWorker(), pptd.WithWindowInterval(time.Second)},
			want: "coordinator drives window closes",
		},
		{
			name: "coordinator needs a stream engine config",
			opts: []pptd.Option{pptd.WithLambda2(1), pptd.WithClusterCoordinator("http://w0")},
			want: "configure a stream engine",
		},
		{
			name: "coordinator with no workers",
			opts: []pptd.Option{pptd.WithStreamEngine(3), pptd.WithClusterCoordinator()},
			want: "no workers",
		},
		{
			name: "coordinator vs persistence",
			opts: []pptd.Option{pptd.WithStreamEngine(3), pptd.WithClusterCoordinator("http://w0"), pptd.WithPersistence(t.TempDir())},
			want: "WithClusterCoordinator conflicts with WithPersistence",
		},
		{
			name: "shipping needs persistence",
			opts: []pptd.Option{pptd.WithStreamEngine(3), pptd.WithSegmentShipping(t.TempDir())},
			want: "WithSegmentShipping requires WithPersistence",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := pptd.NewNode(tc.opts...)
			if err == nil {
				_ = n.Close()
				t.Fatalf("NewNode accepted %s", tc.name)
			}
			if !errors.Is(err, pptd.ErrNodeConfig) {
				t.Fatalf("err = %v, want ErrNodeConfig", err)
			}
			if got := err.Error(); !strings.Contains(got, tc.want) {
				t.Fatalf("err = %q, want mention of %q", got, tc.want)
			}
		})
	}
}

// TestNodeCluster drives the whole multi-node path through the public
// Node API: two durable worker nodes with segment shipping, a
// coordinator node routing ingest and closing windows, the
// coordinator's published truths matching a single-node engine, and its
// /metrics counting the routed submissions per worker and the close.
func TestNodeCluster(t *testing.T) {
	const numObjects = 4
	shipDirs := make([]string, 2)
	workers := make([]*pptd.Node, 2)
	servers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range workers {
		shipDirs[i] = filepath.Join(t.TempDir(), "replica")
		w, err := pptd.NewNode(
			pptd.WithName("shard"),
			pptd.WithStreamEngine(numObjects),
			pptd.WithClusterWorker(),
			pptd.WithPersistence(t.TempDir()),
			pptd.WithSegmentShipping(shipDirs[i]),
		)
		if err != nil {
			t.Fatalf("worker node %d: %v", i, err)
		}
		defer func() { _ = w.Close() }()
		workers[i] = w
		servers[i] = httptest.NewServer(w.Handler())
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}

	coordNode, err := pptd.NewNode(
		pptd.WithName("front"),
		pptd.WithStreamEngine(numObjects),
		pptd.WithClusterCoordinator(urls...),
	)
	if err != nil {
		t.Fatalf("coordinator node: %v", err)
	}
	defer func() { _ = coordNode.Close() }()
	if coordNode.Coordinator() == nil {
		t.Fatal("Coordinator() = nil on a coordinator node")
	}
	if coordNode.Stream() != nil {
		t.Fatal("coordinator node hosts a local stream engine")
	}

	ref, err := pptd.NewStreamEngine(pptd.StreamConfig{NumObjects: numObjects})
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	defer func() { _ = ref.Close() }()

	front := httptest.NewServer(coordNode.Handler())
	defer front.Close()
	client, err := pptd.NewClient(front.URL)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	ctx := context.Background()

	users := []string{"ada", "grace", "edsger", "barbara", "donald"}
	for u, id := range users {
		claims := make([]pptd.StreamClaim, 0, numObjects)
		for o := 0; o < numObjects; o++ {
			claims = append(claims, pptd.StreamClaim{Object: o, Value: float64(u*numObjects + o)})
		}
		if _, _, err := ref.Ingest(id, claims); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
		wire := make([]pptd.CampaignClaim, len(claims))
		for i, c := range claims {
			wire[i] = pptd.CampaignClaim{Object: c.Object, Value: c.Value}
		}
		if _, err := client.StreamSubmit(ctx, pptd.CampaignSubmission{ClientID: id, Claims: wire}); err != nil {
			t.Fatalf("cluster submit %s: %v", id, err)
		}
	}
	refRes, err := ref.CloseWindow()
	if err != nil {
		t.Fatalf("reference close: %v", err)
	}
	got, err := client.StreamCloseWindow(ctx)
	if err != nil {
		t.Fatalf("cluster close: %v", err)
	}
	if got.Window != refRes.Window {
		t.Fatalf("cluster closed window %d, reference %d", got.Window, refRes.Window)
	}
	for o, want := range refRes.Truths {
		if math.Abs(got.Truths[o]-want) > 1e-9 {
			t.Fatalf("object %d: cluster truth %v, single-node %v", o, got.Truths[o], want)
		}
	}

	// The coordinator's routing series: one per worker (present even if
	// the ring gave it no user), counting submissions, not claims.
	p, err := obstest.ParseText(strings.NewReader(scrapeMetrics(t, front)))
	if err != nil {
		t.Fatalf("parse coordinator /metrics: %v", err)
	}
	routed := map[string]float64{}
	for _, s := range p.Find("pptd_cluster_routed_claims_total") {
		routed[s.Label("worker")] += s.Value
	}
	var total float64
	for _, u := range urls {
		n, ok := routed[u]
		if !ok {
			t.Errorf("no pptd_cluster_routed_claims_total series for worker %s", u)
		}
		total += n
	}
	if len(routed) != len(urls) || total != float64(len(users)) {
		t.Errorf("routed submissions = %v (sum %v), want %d over the %d workers", routed, total, len(users), len(urls))
	}
	if v, err := p.Value("pptd_cluster_window_closes_total"); err != nil || v != 1 {
		t.Errorf("pptd_cluster_window_closes_total = %v (%v), want 1", v, err)
	}

	// Ship both workers and check each replica is a recoverable store
	// holding the closed window's snapshot.
	for i, w := range workers {
		if w.Shipper() == nil {
			t.Fatal("Shipper() = nil on a shipping node")
		}
		if err := w.Shipper().SyncOnce(); err != nil {
			t.Fatalf("ship worker %d: %v", i, err)
		}
		replica, err := pptd.NewNode(
			pptd.WithStreamEngine(numObjects),
			pptd.WithPersistence(shipDirs[i]),
		)
		if err != nil {
			t.Fatalf("open replica %d: %v", i, err)
		}
		if got := replica.Stream().Engine().Window(); got != 1 {
			_ = replica.Close()
			t.Fatalf("replica %d recovered at %d closed windows, want 1", i, got)
		}
		if err := replica.Close(); err != nil {
			t.Fatalf("close replica %d: %v", i, err)
		}
	}
}
