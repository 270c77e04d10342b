package pptd_test

import (
	"math"
	"testing"

	"pptd"
)

func TestFacadeEndToEnd(t *testing.T) {
	rng := pptd.NewRNG(1)
	inst, err := pptd.GenerateSynthetic(pptd.DefaultSyntheticConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := pptd.NewAccountant(1, pptd.WithSensitivityTail(0.5, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	mech, err := acct.MechanismForEpsilon(0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	method, err := pptd.NewCRH()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pptd.NewPipeline(mech, method)
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := pipe.Run(inst.Dataset, rng)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.UtilityMAE >= outcome.Noise.MeanAbsNoise {
		t.Fatalf("utility MAE %v not below injected noise %v",
			outcome.UtilityMAE, outcome.Noise.MeanAbsNoise)
	}
}

func TestFacadeDatasetBuilder(t *testing.T) {
	b := pptd.NewDatasetBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	b.Add(1, 0, 3)
	b.Add(1, 1, 4)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers() != 2 || ds.NumObjects() != 2 {
		t.Fatalf("dims (%d, %d)", ds.NumUsers(), ds.NumObjects())
	}

	dense, err := pptd.DatasetFromDense([][]float64{{1, math.NaN()}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if dense.NumObservations() != 3 {
		t.Fatalf("observations = %d", dense.NumObservations())
	}
}

func TestFacadeMethods(t *testing.T) {
	ds, err := pptd.DatasetFromDense([][]float64{
		{1, 5},
		{1.2, 5.2},
		{0.8, 4.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	crh, err := pptd.NewCRH(pptd.WithCRHDistance(pptd.AbsoluteDistance), pptd.WithCRHTolerance(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	gtm, err := pptd.NewGTM()
	if err != nil {
		t.Fatal(err)
	}
	catd, err := pptd.NewCATD()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []pptd.Method{crh, gtm, catd, pptd.MeanBaseline(), pptd.MedianBaseline()} {
		res, err := m.Run(ds)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(res.Truths) != 2 {
			t.Fatalf("%s: %d truths", m.Name(), len(res.Truths))
		}
		if res.Truths[0] < 0.8 || res.Truths[0] > 1.2 {
			t.Fatalf("%s: truth %v", m.Name(), res.Truths[0])
		}
	}
}

func TestFacadeTheory(t *testing.T) {
	gamma, err := pptd.SensitivityGamma(3, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pptd.NoiseLevelForEpsilon(1, 0.3, 1, gamma)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := pptd.EpsilonForNoiseLevel(c, 0.3, 1, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps-1) > 1e-9 {
		t.Fatalf("round trip epsilon = %v", eps)
	}
	cap1, err := pptd.UtilityNoiseUpperBound(1, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cap1 <= 0 {
		t.Fatalf("utility cap = %v", cap1)
	}
	tr, err := pptd.AnalyzeTradeoff(1, 1, 0.1, 500, 1, 0.3, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Feasible {
		t.Fatalf("expected feasible tradeoff, got %+v", tr)
	}
	lambda2, err := pptd.Lambda2ForNoiseLevel(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lambda2 != 0.5 {
		t.Fatalf("lambda2 = %v", lambda2)
	}
	if noise := pptd.ExpectedAbsNoise(0.5); math.Abs(noise-1) > 1e-12 {
		t.Fatalf("expected abs noise = %v", noise)
	}
}

func TestFacadeWeightsHelpers(t *testing.T) {
	ds, err := pptd.DatasetFromDense([][]float64{
		{1, 5},
		{3, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := pptd.WeightsAgainst(ds, []float64{1, 5}, pptd.SquaredDistance)
	if err != nil {
		t.Fatal(err)
	}
	if ws[0] <= ws[1] {
		t.Fatalf("exact user not favored: %v", ws)
	}
	if !pptd.NormalizeWeights(ws) {
		t.Fatal("normalize failed")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(pptd.Experiments()) < 9 {
		t.Fatalf("registry has %d experiments", len(pptd.Experiments()))
	}
	if _, err := pptd.RunExperiment("does-not-exist", pptd.ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeFloorplan(t *testing.T) {
	cfg := pptd.DefaultFloorplanConfig()
	cfg.NumUsers = 30
	cfg.NumSegments = 10
	inst, err := pptd.GenerateFloorplan(cfg, pptd.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Dataset.NumUsers() != 30 || len(inst.SegmentLengths) != 10 {
		t.Fatalf("floorplan shape (%d, %d)", inst.Dataset.NumUsers(), len(inst.SegmentLengths))
	}
}

func TestFacadeCategorical(t *testing.T) {
	rng := pptd.NewRNG(9)
	b := pptd.NewCategoricalBuilder(3, 2, 3)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	b.Add(1, 0, 1)
	b.Add(1, 1, 2)
	b.Add(2, 0, 0)
	b.Add(2, 1, 1)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := pptd.NewRandomizedResponse(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := rr.PerturbDataset(ds, rng)
	if err != nil {
		t.Fatal(err)
	}
	voting, err := pptd.NewWeightedVoting()
	if err != nil {
		t.Fatal(err)
	}
	res, err := voting.Run(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truths) != 2 {
		t.Fatalf("truths = %v", res.Truths)
	}
	acc, err := pptd.CategoricalAccuracy(res.Truths, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	majority, err := pptd.NewWeightedVoting(pptd.WithUnweightedVoting())
	if err != nil {
		t.Fatal(err)
	}
	if majority.Name() != "majority" {
		t.Fatalf("name = %q", majority.Name())
	}
}

func TestFacadeSecureAggregation(t *testing.T) {
	rng := pptd.NewRNG(21)
	agg, err := pptd.NewSecureAggregator(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := agg.Sum([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sums[0]-9) > 1e-6 || math.Abs(sums[1]-12) > 1e-6 {
		t.Fatalf("secure sums = %v", sums)
	}

	inst, err := pptd.GenerateSynthetic(pptd.SyntheticConfig{
		NumUsers: 20, NumObjects: 10, Lambda1: 2,
		TruthLow: 0, TruthHigh: 10, ObserveProb: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, cost, err := pptd.SecureCRH(inst.Dataset, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truths) != 10 || cost.TotalBytes <= 0 {
		t.Fatalf("secure CRH res=%v cost=%+v", res.Truths, cost)
	}
	pc := pptd.PerturbationCost(20, 10)
	if pc.TotalBytes >= cost.TotalBytes {
		t.Fatalf("perturbation %d bytes not below secure-agg %d", pc.TotalBytes, cost.TotalBytes)
	}
}
