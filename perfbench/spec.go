package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// spec.json is the benchmark's recorded contract: workload sizes, the
// forecast traffic mix and where each of its settings comes from, the
// seeds, the digests of the default seed's outputs and the annotation of
// every per-layer metric. The program reads its settings from it, so the
// record and the measured configuration cannot drift apart. The metric
// names, units and directions are read from BENCHMARK.json, their only
// record.
//
//go:embed spec.json
var specJSON []byte

// metricSpec declares one metric, as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// layerNote annotates a per-layer metric: the end-to-end metric the layer
// should move, on which workload, and the BENCH_EVAL / BENCH_SERVE row
// that owns the layer.
type layerNote struct {
	Moves    string `json:"moves"`
	Workload string `json:"workload"`
	Owner    string `json:"owner"`
}

type evolveSpec struct {
	Pop         int `json:"pop"`
	Gens        int `json:"gens"`
	LocalSearch int `json:"local_search"`
	Runs        int `json:"runs"`
	TopK        int `json:"top_k"`
	SubSteps    int `json:"sub_steps"`
}

type baselinesSpec struct {
	Methods     []string `json:"methods"`
	CalibBudget int      `json:"calib_budget"`
	GGGPPop     int      `json:"gggp_pop"`
	GGGPGen     int      `json:"gggp_gen"`
	SubSteps    int      `json:"sub_steps"`
}

type mixSpec struct {
	Days            int     `json:"days"`
	Param           string  `json:"param"`
	ParamLo         float64 `json:"param_lo"`
	ParamHi         float64 `json:"param_hi"`
	RepeatShare     float64 `json:"repeat_share"`
	RepeatWindow    int     `json:"repeat_window"`
	EnsembleShare   float64 `json:"ensemble_share"`
	EnsembleMembers int     `json:"ensemble_members"`
	Override        string  `json:"override"`
	OverrideLo      float64 `json:"override_lo"`
	OverrideHi      float64 `json:"override_hi"`
	Posterior       int     `json:"posterior_samples"`
	// Sources says where each setting above comes from; a setting with
	// no source in the repository is marked as an unverified assumption.
	Sources map[string]string `json:"sources"`
}

type phaseSpec struct {
	Rate        float64 `json:"rate"`
	WindowShare float64 `json:"window_share"`
	MinRequests int     `json:"min_requests"`
}

type ladderSpec struct {
	Start        float64 `json:"start"`
	Factor       float64 `json:"factor"`
	MaxRungs     int     `json:"max_rungs"`
	RungRequests int     `json:"rung_requests"`
	BisectSteps  int     `json:"bisect_steps"`
}

type replaySpec struct {
	Point    int `json:"point"`
	Ensemble int `json:"ensemble"`
	Passes   int `json:"passes"`
	Clients  int `json:"clients"`
}

type forecastSpec struct {
	P99LimitMs float64    `json:"p99_limit_ms"`
	Mix        mixSpec    `json:"mix"`
	Low        phaseSpec  `json:"low"`
	High       phaseSpec  `json:"high"`
	Ladder     ladderSpec `json:"ladder"`
	Replay     replaySpec `json:"replay"`
}

type spec struct {
	// DatasetSeed fixes the synthetic river dataset, the case study every
	// workload runs on; the workload seed varies the search and traffic.
	DatasetSeed int64             `json:"dataset_seed"`
	DefaultSeed int64             `json:"default_seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	Digests     map[string]string `json:"digests"`
	SetupReps   int               `json:"setup_reps"`
	MinReps     int               `json:"min_reps"`
	TraceRing   int               `json:"trace_ring"`
	Revise      struct {
		Scale string `json:"scale"`
	} `json:"revise"`
	Evolve    evolveSpec           `json:"evolve"`
	Baselines baselinesSpec        `json:"baselines"`
	Forecast  forecastSpec         `json:"forecast"`
	Layers    map[string]layerNote `json:"layers"`

	// From BENCHMARK.json.
	EndToEnd []metricSpec `json:"-"`
	PerLayer []metricSpec `json:"-"`
}

// loadSpec reads the embedded spec.json and the metric tables of the
// BENCHMARK.json at benchPath.
func loadSpec(benchPath string) (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return nil, err
	}
	var bj struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", benchPath, err)
	}
	s.EndToEnd, s.PerLayer = bj.EndToEnd, bj.PerLayer
	return &s, nil
}
