// Calibcompare runs the nine model-calibration baselines of the paper
// (Section IV-B3) head-to-head on the synthetic river dataset with an equal
// evaluation budget, reporting train/test accuracy and the calibrated
// parameters that drifted furthest from the Table III expert means — the
// paper's point that structure-blind calibration pushes parameters to
// unrealistic values to compensate for missing processes.
package main

import (
	"fmt"
	"log"
	"math"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/dataset"
	"gmr/internal/metrics"
	"gmr/internal/stats"
)

func main() {
	ds, err := dataset.Generate(dataset.Config{Seed: 7, StartYear: 1998, EndYear: 2004, TrainEndYear: 2002})
	if err != nil {
		log.Fatal(err)
	}
	consts := bio.DefaultConstants()
	simTr := dataset.ModelSimConfig(2, ds.ObsPhy[0], ds.ObsZoo[0])
	simTe := dataset.ModelSimConfig(2, ds.ObsPhy[ds.TrainEnd], ds.ObsZoo[ds.TrainEnd])
	objs, err := calib.RiverObjectives(ds.TrainForcing(), ds.TrainObsPhy(), simTr)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := calib.Box(consts)

	phy, zoo, _, err := bio.ManualSystem()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		log.Fatal(err)
	}

	const budget = 3000
	fmt.Printf("%-8s %-12s %-12s %-s\n", "method", "train RMSE", "test RMSE", "largest drift from expert mean")
	for i, c := range calib.All() {
		rng := stats.NewRand(int64(100 + i))
		params, trainF := objs.Calibrate(c, lo, hi, budget, rng)
		te := sys.Predict(ds.TestForcing(), params, simTe)
		testF := metrics.RMSE(te, ds.TestObsPhy())

		// Which parameter moved furthest (relative to its range)?
		worst, drift := "", 0.0
		for j, cc := range consts {
			span := cc.Max - cc.Min
			if span <= 0 {
				continue
			}
			d := math.Abs(params[j]-cc.Mean) / span
			if d > drift {
				drift, worst = d, cc.Name
			}
		}
		fmt.Printf("%-8s %-12.3f %-12.3f %s moved %.0f%% of its range\n",
			c.Name(), trainF, testF, worst, 100*drift)
	}
}
