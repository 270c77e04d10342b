package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"pptd"
	"pptd/internal/crowd"
)

// Fleet shape shared by every workload (ISSUE 12): the paper's mechanism
// at lambda1 = 1.5 (sensor quality), lambda2 = 2 (perturbation rate),
// delta = 0.3, CRH, no forgetting, two engine shards.
const (
	lambda1   = 1.5
	lambda2   = 2.0
	delta     = 0.3
	numShards = 2
)

// workload is one traffic mix; see README.md for why each exists and
// which layer it stresses.
type workload struct {
	name string
	why  string

	users   int // distinct devices in the roster
	objects int // objects = claims per submission
	passes  int // closed loop: submissions per device per window

	binary     bool // binary claim frame at the front door (else JSON)
	accounting bool // privacy ledger on: charge + claim WAL fsync'd before the ack
	workers    int  // >0: coordinator + this many durable workers

	// Open loop (rate > 0): a seeded Poisson schedule at rate
	// submissions/s while a separate goroutine closes a window every
	// closeEvery. Zero means closed loop.
	rate       float64
	closeEvery time.Duration
}

// maeCeiling fails the run when the last window's truths stray further
// than this from the generator's ground truth. The error of a weighted
// mean over n devices shrinks as 1/sqrt(n); measured values sit at a
// third of the ceiling or less (0.008-0.015 at 2500-8000 devices).
func (w workload) maeCeiling() float64 { return 2 / math.Sqrt(float64(w.users)) }

var workloads = []workload{
	{
		name: "ledger-json", users: 3000, objects: 16, passes: 1, accounting: true,
		why: "one durable node, privacy ledger on, JSON wire, closed loop: the streamstore ledger's fsync sets throughput and ack latency",
	},
	{
		name: "aggregate-binary", users: 8000, objects: 16, passes: 3, binary: true,
		why: "one durable node, ledger off, binary wire, closed loop: CPU-bound wire decode, handlers, middleware and fold; bypasses the journal",
	},
	{
		name: "close-under-load", users: 4000, objects: 32, passes: 1, binary: true, accounting: true,
		rate: 800, closeEvery: time.Second,
		why: "open-loop Poisson arrivals timed from their due time while windows close: submit p90 sits inside the stop-the-world close",
	},
	{
		name: "cluster-2w", users: 2500, objects: 16, passes: 1, binary: true, accounting: true, workers: 2,
		why: "coordinator plus two durable workers, closed loop: routing hop, probe/force close, merge and commit; single-node changes should not move it",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineConfig is the stream configuration every node of the workload
// (single node, workers, coordinator) shares.
func (w workload) engineConfig() pptd.StreamConfig {
	cfg := pptd.StreamConfig{
		NumObjects: w.objects,
		NumShards:  numShards,
		Decay:      1,
		Lambda2:    lambda2,
	}
	if w.accounting {
		cfg.Lambda1 = lambda1
		cfg.Delta = delta
	}
	return cfg
}

// fleet is everything the generator derives from the seed before timing
// starts: the ground truth, each device's perturbed claims, and one
// fully framed HTTP request per device, so the timed path neither
// encodes nor draws random numbers.
type fleet struct {
	w      workload
	truth  []float64
	ids    []string
	claims [][]pptd.CampaignClaim // [user][object], perturbed: what the server is sent

	reqs    []byte // every device's request, back to back
	reqOff  []int  // request i is reqs[reqOff[i]:reqOff[i+1]]
	bodyOff []int  // its body, in the workload's wire format, is reqs[bodyOff[i]:reqOff[i+1]]

	// schedule holds the open-loop due times as offsets from the start
	// of the measurement phase.
	schedule []time.Duration
}

// userID names device i. It is also the X-Request-ID every request of
// the device carries, so the traced run can tie a ledger append (which
// knows only the user) back to the request that caused it.
func userID(i int) string { return "u" + fmt.Sprintf("%06d", i) }

// newFleet generates the roster. The seed moves the devices' qualities,
// their noise, the ground truth and the Poisson schedule, nothing else.
func newFleet(w workload, seed uint64, seconds float64) (*fleet, error) {
	mech, err := pptd.NewMechanism(lambda2)
	if err != nil {
		return nil, err
	}
	rng := pptd.NewRNG(seed)
	f := &fleet{
		w:       w,
		truth:   make([]float64, w.objects),
		ids:     make([]string, w.users),
		claims:  make([][]pptd.CampaignClaim, w.users),
		reqOff:  make([]int, w.users+1),
		bodyOff: make([]int, w.users),
	}
	for n := range f.truth {
		f.truth[n] = 10 * rng.Float64()
	}
	readings := make([]float64, w.objects)
	for i := 0; i < w.users; i++ {
		urng := rng.Split()
		sigma := math.Sqrt(urng.Exp() / lambda1)
		for n, tv := range f.truth {
			readings[n] = tv + sigma*urng.Norm()
		}
		f.ids[i] = userID(i)
		cl := make([]pptd.CampaignClaim, w.objects)
		for n, v := range mech.NewUserPerturber(urng).PerturbAll(readings) {
			cl[n] = pptd.CampaignClaim{Object: n, Value: v}
		}
		f.claims[i] = cl
	}

	contentType := "application/json"
	if w.binary {
		contentType = pptd.ContentTypeClaims
	}
	for i, cl := range f.claims {
		var body []byte
		if w.binary {
			body = crowd.AppendClaimFrame(nil, f.ids[i], cl)
		} else {
			body, err = json.Marshal(pptd.CampaignSubmission{ClientID: f.ids[i], Claims: cl})
			if err != nil {
				return nil, err
			}
		}
		f.reqOff[i] = len(f.reqs)
		f.reqs = append(f.reqs, "POST /v1/stream/claims HTTP/1.1\r\nHost: bench\r\nContent-Type: "...)
		f.reqs = append(f.reqs, contentType...)
		f.reqs = append(f.reqs, "\r\nX-Request-ID: "...)
		f.reqs = append(f.reqs, f.ids[i]...)
		f.reqs = append(f.reqs, "\r\nContent-Length: "...)
		f.reqs = strconv.AppendInt(f.reqs, int64(len(body)), 10)
		f.reqs = append(f.reqs, "\r\n\r\n"...)
		f.bodyOff[i] = len(f.reqs)
		f.reqs = append(f.reqs, body...)
	}
	f.reqOff[w.users] = len(f.reqs)

	if w.rate > 0 {
		at := 0.0
		for {
			at += rng.Exp() / w.rate
			if at >= seconds {
				break
			}
			f.schedule = append(f.schedule, time.Duration(at*float64(time.Second)))
		}
	}
	return f, nil
}

func (f *fleet) request(i int) []byte { return f.reqs[f.reqOff[i]:f.reqOff[i+1]] }

// body is the payload of device i's request, as the workload's wire
// encodes it.
func (f *fleet) body(i int) []byte { return f.reqs[f.bodyOff[i]:f.reqOff[i+1]] }

// batchCRH runs the batch method on the first pass of perturbed claims:
// the 1e-9 reference the first warm-up window must match.
func (f *fleet) batchCRH() (*pptd.Result, error) {
	b := pptd.NewDatasetBuilder(f.w.users, f.w.objects)
	for u, cl := range f.claims {
		for _, c := range cl {
			b.Add(u, c.Object, c.Value)
		}
	}
	ds, err := b.Build()
	if err != nil {
		return nil, err
	}
	crh, err := pptd.NewCRH()
	if err != nil {
		return nil, err
	}
	return crh.Run(ds)
}
