package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSpecAnnotatesBenchmarkJSON checks spec.json against the repository's
// BENCHMARK.json: every workload is implemented and has a recorded digest,
// and every per-layer metric, and no other name, carries what it moves,
// where, and its owning row.
func TestSpecAnnotatesBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	sp, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if sp.Digests[w.Name] == "" {
			t.Errorf("spec.json records no output digest for %q", w.Name)
		}
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		t.Fatal("no metrics read from BENCHMARK.json")
	}
	for _, m := range sp.PerLayer {
		n, ok := sp.Layers[m.Name]
		if !ok || n.Moves == "" || n.Workload == "" || n.Owner == "" {
			t.Errorf("per-layer metric %s lacks what it moves, where, or its owning row", m.Name)
		}
	}
	if len(sp.Layers) != len(sp.PerLayer) {
		t.Errorf("spec.json annotates %d metrics, BENCHMARK.json lists %d per-layer metrics", len(sp.Layers), len(sp.PerLayer))
	}
	if sp.HeldOutSeed == sp.DefaultSeed {
		t.Error("the held-out seed must differ from the default seed")
	}
}

// TestTrafficMixSourced requires a source for every traffic-mix setting.
func TestTrafficMixSourced(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(mixSpec{})
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if key == "sources" {
			continue
		}
		if sp.Forecast.Mix.Sources[key] == "" {
			t.Errorf("traffic-mix setting %s has no source in spec.json", key)
		}
	}
}
