// Benchmarks regenerating every figure of the paper's evaluation section
// (one benchmark per figure, exercising the same harness the pptdbench
// CLI runs) plus micro-benchmarks for the mechanism's moving parts and
// ablation benches for the design choices called out in DESIGN.md.
//
// Figure benches run the Quick variant of each experiment so `go test
// -bench=.` completes in minutes; the full sweeps are available through
// cmd/pptdbench.
package pptd_test

import (
	"strconv"
	"testing"

	"pptd"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		report, err := pptd.RunExperiment(name, pptd.ExperimentOptions{
			Seed:  uint64(i + 1),
			Quick: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Figures) == 0 {
			b.Fatal("no figures produced")
		}
	}
}

// BenchmarkFig2TradeoffCRH regenerates Fig. 2: the utility-privacy
// trade-off on synthetic data with CRH (MAE and injected noise vs
// epsilon, one curve per delta).
func BenchmarkFig2TradeoffCRH(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3Lambda1 regenerates Fig. 3: the effect of the error
// distribution parameter lambda1 on utility and required noise.
func BenchmarkFig3Lambda1(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4Users regenerates Fig. 4: the effect of the number of
// users S under a fixed mechanism.
func BenchmarkFig4Users(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5TradeoffGTM regenerates Fig. 5: the trade-off with GTM in
// place of CRH.
func BenchmarkFig5TradeoffGTM(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6Floorplan regenerates Fig. 6: the trade-off on the
// simulated indoor-floorplan crowd sensing system.
func BenchmarkFig6Floorplan(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Weights regenerates Fig. 7: true vs estimated user weights
// on original and perturbed floorplan data.
func BenchmarkFig7Weights(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Efficiency regenerates Fig. 8: truth-discovery running
// time as a function of the injected noise level.
func BenchmarkFig8Efficiency(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkAblationMethods compares CRH/GTM/CATD against the unweighted
// mean/median baselines under the mechanism's noise (beyond the paper).
func BenchmarkAblationMethods(b *testing.B) { benchExperiment(b, "ablation-methods") }

// BenchmarkAblationAttack measures robustness to spammer, biased and
// colluding adversaries layered on the perturbation (beyond the paper).
func BenchmarkAblationAttack(b *testing.B) { benchExperiment(b, "ablation-attack") }

// BenchmarkTheoremA1 validates the c = 1 special case (Theorem A.1):
// the tail probability of the aggregate shift vanishes with S and is
// dominated by the analytic bound.
func BenchmarkTheoremA1(b *testing.B) { benchExperiment(b, "thmA1") }

// BenchmarkCategoricalExtension measures the categorical extension:
// weighted voting vs majority under k-ary randomized response.
func BenchmarkCategoricalExtension(b *testing.B) { benchExperiment(b, "ext-categorical") }

// BenchmarkAblationCost quantifies the paper's efficiency argument:
// one-shot perturbed uploads vs secure-aggregation rounds.
func BenchmarkAblationCost(b *testing.B) { benchExperiment(b, "ablation-cost") }

// --- Micro-benchmarks -----------------------------------------------

// benchDataset builds the paper-sized synthetic dataset once.
func benchDataset(b *testing.B) *pptd.Dataset {
	b.Helper()
	inst, err := pptd.GenerateSynthetic(pptd.DefaultSyntheticConfig(), pptd.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return inst.Dataset
}

// BenchmarkPerturbDataset measures the mechanism's throughput on the
// paper-sized dataset (150 users x 30 objects): the client-side cost the
// paper argues is negligible.
func BenchmarkPerturbDataset(b *testing.B) {
	ds := benchDataset(b)
	mech, err := pptd.NewMechanism(2)
	if err != nil {
		b.Fatal(err)
	}
	rng := pptd.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mech.PerturbDataset(ds, rng.Split()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMethod measures one truth-discovery method on the paper-sized
// dataset.
func benchMethod(b *testing.B, method pptd.Method, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := method.Run(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRH measures CRH on the paper-sized dataset.
func BenchmarkCRH(b *testing.B) {
	m, err := pptd.NewCRH()
	benchMethod(b, m, err)
}

// BenchmarkGTM measures GTM on the paper-sized dataset.
func BenchmarkGTM(b *testing.B) {
	m, err := pptd.NewGTM()
	benchMethod(b, m, err)
}

// BenchmarkCATD measures CATD on the paper-sized dataset.
func BenchmarkCATD(b *testing.B) {
	m, err := pptd.NewCATD()
	benchMethod(b, m, err)
}

// BenchmarkMeanBaseline measures the unweighted mean baseline.
func BenchmarkMeanBaseline(b *testing.B) {
	benchMethod(b, pptd.MeanBaseline(), nil)
}

// BenchmarkCRHScalesWithObjects checks the linear-in-objects scaling the
// paper cites for truth discovery, at 150 users.
func BenchmarkCRHScalesWithObjects(b *testing.B) {
	for _, objects := range []int{30, 120, 480} {
		b.Run(sizeLabel(objects), func(b *testing.B) {
			cfg := pptd.DefaultSyntheticConfig()
			cfg.NumObjects = objects
			inst, err := pptd.GenerateSynthetic(cfg, pptd.NewRNG(3))
			if err != nil {
				b.Fatal(err)
			}
			method, err := pptd.NewCRH()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := method.Run(inst.Dataset); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccountant measures the epsilon <-> lambda2 conversions (pure
// closed forms; should be nanoseconds).
func BenchmarkAccountant(b *testing.B) {
	acct, err := pptd.NewAccountant(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech, err := acct.MechanismForEpsilon(0.5, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := acct.Epsilon(mech, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRNGNorm measures the Gaussian sampler at the heart of the
// mechanism.
func BenchmarkRNGNorm(b *testing.B) {
	rng := pptd.NewRNG(4)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rng.Norm()
	}
	_ = sink
}

func sizeLabel(n int) string {
	return "objects-" + strconv.Itoa(n)
}

// BenchmarkAblationConvergence sweeps the convergence threshold on
// original vs perturbed data (the paper's Section 5.3 runtime knob).
func BenchmarkAblationConvergence(b *testing.B) { benchExperiment(b, "ablation-convergence") }
