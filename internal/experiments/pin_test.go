package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/gp"
)

// The output pin: bitwise fingerprints of the reproduced results at a tiny
// budget, so any change to the simulation engines, the calibrators or the
// dataset generator that moves a single output bit fails here, long before
// a full Table V run would show it. Each pinned row also carries a
// readable value so a failure says what moved, not only that something
// did. A deliberate, result-changing change re-records the table below
// and says so in its change log.

// pin is a 64-bit FNV-1a fingerprint over float bit patterns and strings.
type pin struct{ buf []byte }

func (p *pin) str(s string) { p.buf = append(append(p.buf, s...), 0) }

func (p *pin) floats(vs ...float64) {
	for _, v := range vs {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			p.buf = append(p.buf, byte(b>>(8*i)))
		}
	}
}

func (p *pin) sum() string {
	h := fnv.New64a()
	h.Write(p.buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinned is one pinned output: its fingerprint and a readable value.
type pinned struct {
	digest string
	value  string
}

func checkPin(t *testing.T, name string, got, want pinned) {
	t.Helper()
	if got != want {
		t.Errorf("%s: got digest %s (%s), pinned %s (%s)", name, got.digest, got.value, want.digest, want.value)
	}
}

// TestOutputPinTableV pins the nine calibrator rows and the GGGP row of
// Table V at the tiny scale: train/test RMSE and MAE, bit for bit. The
// calibration budget spans more than one sampling cohort of MC and LHS.
func TestOutputPinTableV(t *testing.T) {
	if testing.Short() {
		t.Skip("output pin runs the calibrators and GGGP")
	}
	want := map[string]pinned{
		"GA":     {"b8af01a8a885704b", "test RMSE 52.4933786"},
		"MC":     {"25e5dbfd97663c40", "test RMSE 34.9041667"},
		"LHS":    {"c1bacda4f0c3a9a0", "test RMSE 41.3711925"},
		"MLE":    {"60fce7b043bb406a", "test RMSE 34.4841954"},
		"MCMC":   {"e6527b7ecf424dd7", "test RMSE 77.2282589"},
		"SA":     {"fdd303c41d490877", "test RMSE 29.620369"},
		"DREAM":  {"bea1bb168e7aa63b", "test RMSE 78.0902254"},
		"SCE-UA": {"a2120992510ed8a0", "test RMSE 33.1181983"},
		"DE-MCz": {"e9353f9847419898", "test RMSE 78.0856232"},
		"GGGP":   {"dd887ed39812ff4e", "test RMSE 32.9950226"},
	}
	methods := map[string]bool{}
	for m := range want {
		methods[m] = true
	}
	sc := tinyScale
	sc.CalibBudget = 600
	rows, err := TableV(context.Background(), tinyData(t), sc, 1, methods)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		var p pin
		p.floats(r.TrainRMSE, r.TrainMAE, r.TestRMSE, r.TestMAE)
		checkPin(t, r.Method, pinned{p.sum(), fmt.Sprintf("test RMSE %.9g", r.TestRMSE)}, want[r.Method])
	}
}

// TestOutputPinCoreRun pins one short GMR run with pre-calibration on. Two
// runs exercise both pre-calibrators (GA for even runs, SA for odd ones).
func TestOutputPinCoreRun(t *testing.T) {
	if testing.Short() {
		t.Skip("output pin runs GMR")
	}
	res, err := core.Run(tinyData(t), core.Config{
		GP:                 gp.Config{PopSize: 16, MaxGen: 2, LocalSearchSteps: 1, Seed: 1, Workers: 2},
		Eval:               evalx.AllSpeedups(dataset.ModelSimConfig(2, 0, 0)),
		Runs:               2,
		TopK:               5,
		PreCalibrateBudget: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	var p pin
	p.str(res.BestPhy.String())
	p.str(res.BestZoo.String())
	p.floats(res.Best.Params...)
	for _, r := range res.PerRun {
		p.floats(r.Best.Fitness)
	}
	p.floats(res.TrainRMSE, res.TrainMAE, res.TestRMSE, res.TestMAE)
	checkPin(t, "core.Run", pinned{p.sum(), fmt.Sprintf("test RMSE %.9g", res.TestRMSE)},
		pinned{"452d08515604b3aa", "test RMSE 29.4674076"})
}

// TestOutputPinDefaultDataset pins every generated series of the standard
// dataset (seed 7, the end-to-end benchmark's dataset) bit for bit.
func TestOutputPinDefaultDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("output pin generates the 13-year dataset")
	}
	ds, err := DefaultDataset(7)
	if err != nil {
		t.Fatal(err)
	}
	var p pin
	p.floats(float64(ds.Days), float64(ds.TrainEnd))
	for _, d := range ds.Dates {
		p.str(d)
	}
	for _, rows := range [][][]float64{ds.Forcing, ds.TrueForcing} {
		for _, row := range rows {
			p.floats(row...)
		}
	}
	p.floats(ds.ObsPhy...)
	p.floats(ds.ObsZoo...)
	p.floats(ds.TruePhy...)
	p.floats(ds.TrueZoo...)
	stations := make([]string, 0, len(ds.StationRaw))
	for s := range ds.StationRaw {
		stations = append(stations, s)
	}
	sort.Strings(stations)
	for _, s := range stations {
		p.str(s)
		for _, row := range ds.StationRaw[s] {
			p.floats(row...)
		}
	}
	p.floats(ds.TruthConstants...)
	checkPin(t, "DefaultDataset(7)", pinned{p.sum(), fmt.Sprintf("true BPhy[last] %.9g", ds.TruePhy[len(ds.TruePhy)-1])},
		pinned{"3881d31d2f1832cd", "true BPhy[last] 216.813829"})
}
