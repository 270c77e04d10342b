// Command pptd runs (privacy-preserving) truth discovery on a CSV
// dataset in the pptdgen format.
//
// Usage:
//
//	pptdgen -kind synthetic -out data.csv
//	pptd -in data.csv -method crh                 # plain truth discovery
//	pptd -in data.csv -method crh -lambda2 2      # perturb first (Algorithm 2)
//	pptd -in data.csv -method gtm -weights        # also print user weights
//
// Output is one line per object: "object,truth". If the input carries a
// ground-truth preamble, the MAE against it is printed to stderr.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"pptd"
	"pptd/internal/dataio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pptd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pptd", flag.ContinueOnError)
	var (
		in      = fs.String("in", "-", "input CSV path ('-' = stdin)")
		method  = fs.String("method", "crh", "truth discovery method: crh, gtm, catd, mean, median")
		lambda2 = fs.Float64("lambda2", 0, "if > 0, perturb each user's data with the mechanism first")
		seed    = fs.Uint64("seed", 1, "random seed for perturbation")
		weights = fs.Bool("weights", false, "also print user weights to stdout")
		secure  = fs.Bool("secure", false, "aggregate via secure-sum rounds (crypto baseline) and print its cost")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer func() {
			_ = f.Close()
		}()
		r = f
	}
	ds, groundTruth, err := dataio.Read(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "loaded %d users x %d objects (%d observations)\n",
		ds.NumUsers(), ds.NumObjects(), ds.NumObservations())

	if *lambda2 > 0 {
		mech, err := pptd.NewMechanism(*lambda2)
		if err != nil {
			return err
		}
		perturbed, report, err := mech.PerturbDataset(ds, pptd.NewRNG(*seed))
		if err != nil {
			return err
		}
		ds = perturbed
		fmt.Fprintf(stderr, "perturbed with lambda2=%v (mean |noise| = %.4f)\n", *lambda2, report.MeanAbsNoise)
	}

	var res *pptd.Result
	if *secure {
		if *method != "crh" {
			return errors.New("-secure supports only -method crh")
		}
		var cost pptd.SecureCost
		res, cost, err = pptd.SecureCRH(ds, pptd.NewRNG(*seed+1))
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "secure-crh: %d rounds, converged=%v, %d B total, %d B/user/round + %d B/user setup\n",
			res.Iterations, res.Converged, cost.TotalBytes, cost.BytesPerUserPerRound, cost.SetupBytesPerUser)
	} else {
		td, err := methodByName(*method)
		if err != nil {
			return err
		}
		res, err = td.Run(ds)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: %d iterations, converged=%v\n", td.Name(), res.Iterations, res.Converged)
	}

	bw := bufio.NewWriter(stdout)
	fmt.Fprintln(bw, "object,truth")
	for n, v := range res.Truths {
		fmt.Fprintf(bw, "%d,%s\n", n, strconv.FormatFloat(v, 'g', -1, 64))
	}
	if *weights {
		fmt.Fprintln(bw, "user,weight")
		for s, w := range res.Weights {
			fmt.Fprintf(bw, "%d,%s\n", s, strconv.FormatFloat(w, 'g', -1, 64))
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	if groundTruth != nil {
		var mae float64
		for n, tv := range groundTruth {
			d := res.Truths[n] - tv
			if d < 0 {
				d = -d
			}
			mae += d
		}
		mae /= float64(len(groundTruth))
		fmt.Fprintf(stderr, "MAE vs ground truth: %.6f\n", mae)
	}
	return nil
}

func methodByName(name string) (pptd.Method, error) {
	switch name {
	case "crh":
		return pptd.NewCRH()
	case "gtm":
		return pptd.NewGTM()
	case "catd":
		return pptd.NewCATD()
	case "mean":
		return pptd.MeanBaseline(), nil
	case "median":
		return pptd.MedianBaseline(), nil
	default:
		return nil, errors.New("unknown method " + name)
	}
}
