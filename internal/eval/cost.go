package eval

import (
	"fmt"
	"time"

	"pptd/internal/core"
	"pptd/internal/randx"
	"pptd/internal/secagg"
	"pptd/internal/stats"
	"pptd/internal/synthetic"
	"pptd/internal/truth"
)

// CostConfig parameterizes the deployment-cost comparison between the
// paper's perturbation mechanism and a secure-aggregation baseline (the
// class of crypto alternative the paper's introduction argues is too
// expensive for crowd sensing scale).
type CostConfig struct {
	// UserCounts sweeps the crowd size.
	UserCounts []int
	// NumObjects fixes the task size.
	NumObjects int
	// Lambda1 fixes the data quality; Lambda2 the mechanism.
	Lambda1, Lambda2 float64
	// Trials averages the timing measurements.
	Trials int
	// Seed derives all randomness.
	Seed uint64
}

func (c CostConfig) validate() error {
	switch {
	case len(c.UserCounts) == 0:
		return fmt.Errorf("%w: empty user sweep", ErrBadConfig)
	case c.NumObjects <= 0:
		return fmt.Errorf("%w: NumObjects = %d", ErrBadConfig, c.NumObjects)
	case c.Lambda1 <= 0:
		return fmt.Errorf("%w: lambda1 = %v", ErrBadConfig, c.Lambda1)
	case c.Lambda2 <= 0:
		return fmt.Errorf("%w: lambda2 = %v", ErrBadConfig, c.Lambda2)
	case c.Trials <= 0:
		return fmt.Errorf("%w: trials = %d", ErrBadConfig, c.Trials)
	}
	return nil
}

// CostResult holds the comparison outputs.
type CostResult struct {
	// Bytes plots total communication (KiB, log-friendly) vs S for both
	// approaches.
	Bytes *Figure
	// Wall plots end-to-end wall time (ms) vs S for both approaches.
	Wall *Figure
	// Table summarizes one row per crowd size.
	Table *Table
}

// CostComparison measures, for each crowd size: (a) the paper's
// mechanism — one perturbed upload per user, then plain CRH at the
// server; (b) pairwise-masking secure aggregation running the same CRH
// iteration under masked sums. Both produce comparable aggregates; the
// resource gap is the experiment's point.
func CostComparison(cfg CostConfig) (*CostResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mech, err := core.NewMechanism(cfg.Lambda2)
	if err != nil {
		return nil, fmt.Errorf("eval: cost comparison: %w", err)
	}
	crh, err := truth.NewCRH(truth.WithCRHDistance(truth.SquaredDistance))
	if err != nil {
		return nil, fmt.Errorf("eval: cost comparison: %w", err)
	}

	bytesFig := &Figure{
		ID:     "ablation-cost-bytes",
		Title:  "total communication: perturbation mechanism vs secure aggregation",
		XLabel: "S",
		YLabel: "KiB",
	}
	wallFig := &Figure{
		ID:     "ablation-cost-wall",
		Title:  "end-to-end wall time: perturbation mechanism vs secure aggregation",
		XLabel: "S",
		YLabel: "ms",
	}
	perturbBytes := Series{Label: "perturbation"}
	secureBytes := Series{Label: "secure-agg"}
	perturbWall := Series{Label: "perturbation"}
	secureWall := Series{Label: "secure-agg"}
	table := &Table{
		Title: "deployment cost per approach",
		Header: []string{
			"S", "approach", "setup B/user", "data B/user", "rounds", "total KiB", "wall ms",
		},
	}

	root := randx.New(cfg.Seed)
	for _, s := range cfg.UserCounts {
		if s < 2 {
			return nil, fmt.Errorf("%w: user count %d", ErrBadConfig, s)
		}
		gen := synthetic.Config{
			NumUsers:    s,
			NumObjects:  cfg.NumObjects,
			Lambda1:     cfg.Lambda1,
			TruthLow:    0,
			TruthHigh:   10,
			ObserveProb: 1,
		}

		var perturbMs, secureMs stats.Welford
		var secureCost secagg.Cost
		var secureRounds int
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := root.Split()
			inst, err := synthetic.Generate(gen, rng)
			if err != nil {
				return nil, fmt.Errorf("eval: cost comparison: %w", err)
			}

			start := time.Now()
			perturbed, _, err := mech.PerturbDataset(inst.Dataset, rng.Split())
			if err != nil {
				return nil, fmt.Errorf("eval: cost comparison: %w", err)
			}
			if _, err := crh.Run(perturbed); err != nil {
				return nil, fmt.Errorf("eval: cost comparison: %w", err)
			}
			perturbMs.Add(float64(time.Since(start).Microseconds()) / 1000)

			start = time.Now()
			res, cost, err := secagg.SecureCRH(inst.Dataset, rng.Split())
			if err != nil {
				return nil, fmt.Errorf("eval: cost comparison: %w", err)
			}
			secureMs.Add(float64(time.Since(start).Microseconds()) / 1000)
			secureCost = cost
			secureRounds = res.Iterations
		}

		pCost := secagg.PerturbationCost(s, cfg.NumObjects)
		x := float64(s)
		perturbBytes.Points = append(perturbBytes.Points, Point{X: x, Y: float64(pCost.TotalBytes) / 1024})
		secureBytes.Points = append(secureBytes.Points, Point{X: x, Y: float64(secureCost.TotalBytes) / 1024})
		perturbWall.Points = append(perturbWall.Points, Point{X: x, Y: perturbMs.Mean()})
		secureWall.Points = append(secureWall.Points, Point{X: x, Y: secureMs.Mean()})

		table.Rows = append(table.Rows,
			[]string{
				fmt.Sprintf("%d", s), "perturbation",
				fmt.Sprintf("%d", pCost.SetupBytesPerUser),
				fmt.Sprintf("%d", pCost.BytesPerUserPerRound),
				fmt.Sprintf("%d", pCost.Rounds),
				fmt.Sprintf("%.1f", float64(pCost.TotalBytes)/1024),
				fmt.Sprintf("%.2f", perturbMs.Mean()),
			},
			[]string{
				fmt.Sprintf("%d", s), "secure-agg",
				fmt.Sprintf("%d", secureCost.SetupBytesPerUser),
				fmt.Sprintf("%d", secureCost.BytesPerUserPerRound),
				fmt.Sprintf("%d", secureRounds),
				fmt.Sprintf("%.1f", float64(secureCost.TotalBytes)/1024),
				fmt.Sprintf("%.2f", secureMs.Mean()),
			},
		)
	}
	bytesFig.Series = []Series{perturbBytes, secureBytes}
	wallFig.Series = []Series{perturbWall, secureWall}
	return &CostResult{Bytes: bytesFig, Wall: wallFig, Table: table}, nil
}
