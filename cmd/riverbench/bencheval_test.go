package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gmr/internal/dataset"
	"gmr/internal/evalx"
)

// Tests for the BENCH_EVAL.json regression comparator: legacy-format
// upgrade, the 15% ns/op limit, the zero-tolerance allocation rule, and
// the missing-row rule.

func writeBaseline(t *testing.T, v any) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "baseline.json")
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func snap(procs int, results ...benchEvalResult) *benchEvalSnapshot {
	return &benchEvalSnapshot{
		GoVersion: "go1.24.0",
		Entries:   []benchEvalEntry{{GOMAXPROCS: procs, Benchmarks: results}},
	}
}

func TestEntriesUpgradesLegacyLayout(t *testing.T) {
	legacy := benchEvalSnapshot{
		GoVersion:  "go1.24.0",
		GOMAXPROCS: 1,
		Benchmarks: []benchEvalResult{{Name: "evaluate_cold", NsPerOp: 100}},
		Cache:      &evalx.Snapshot{Evaluations: 42},
	}
	es := legacy.entries()
	if len(es) != 1 {
		t.Fatalf("legacy snapshot upgraded to %d entries, want 1", len(es))
	}
	if es[0].GOMAXPROCS != 1 || len(es[0].Benchmarks) != 1 || es[0].Cache.Evaluations != 42 {
		t.Fatalf("legacy upgrade dropped fields: %+v", es[0])
	}
	if (&benchEvalSnapshot{}).entries() != nil {
		t.Fatal("empty snapshot should produce no entries")
	}
}

func TestCompareBenchBaselineWithinLimits(t *testing.T) {
	base := writeBaseline(t, snap(1,
		benchEvalResult{Name: "evaluate_tier1_hit", NsPerOp: 1000, AllocsPerOp: 1}))
	cur := snap(1, benchEvalResult{Name: "evaluate_tier1_hit", NsPerOp: 1100, AllocsPerOp: 1})
	if err := compareBenchBaseline(cur, base); err != nil {
		t.Fatalf("10%% slower should pass the 15%% limit: %v", err)
	}
}

func TestCompareBenchBaselineNsRegression(t *testing.T) {
	base := writeBaseline(t, snap(1,
		benchEvalResult{Name: "evaluate_tier1_hit", NsPerOp: 1000, AllocsPerOp: 1}))
	cur := snap(1, benchEvalResult{Name: "evaluate_tier1_hit", NsPerOp: 1200, AllocsPerOp: 1})
	if err := compareBenchBaseline(cur, base); err == nil {
		t.Fatal("20% ns/op regression must fail")
	}
}

func TestCompareBenchBaselineAllocRegression(t *testing.T) {
	base := writeBaseline(t, snap(1,
		benchEvalResult{Name: "calib_batch_population", NsPerOp: 1000, AllocsPerOp: 0}))
	cur := snap(1, benchEvalResult{Name: "calib_batch_population", NsPerOp: 900, AllocsPerOp: 1})
	if err := compareBenchBaseline(cur, base); err == nil {
		t.Fatal("a single extra alloc/op must fail, even when faster")
	}
}

func TestCompareBenchBaselineLegacyFile(t *testing.T) {
	// A legacy (pre-Entries) baseline must still be comparable.
	base := writeBaseline(t, map[string]any{
		"go_version": "go1.24.0",
		"gomaxprocs": 1,
		"benchmarks": []benchEvalResult{{Name: "evaluate_cold", NsPerOp: 1000, AllocsPerOp: 534}},
	})
	cur := snap(1, benchEvalResult{Name: "evaluate_cold", NsPerOp: 980, AllocsPerOp: 267})
	if err := compareBenchBaseline(cur, base); err != nil {
		t.Fatalf("legacy baseline comparison failed: %v", err)
	}
}

// TestBenchEvalCachePassExercisesShortCircuits guards against the
// short-circuit path going dormant in the snapshot workload: with
// per-round batch boundaries the reference fitness commits at every
// EndBatch, so later rounds must actually stop hopeless candidates early
// (BENCH_EVAL.json reports a live short_circuits count, not a stale zero).
func TestBenchEvalCachePassExercisesShortCircuits(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 3, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	cache := benchEvalCachePass(ds)
	if cache.Evaluations == 0 {
		t.Fatal("cache pass evaluated nothing")
	}
	if cache.ShortCircuits == 0 {
		t.Error("cache pass produced zero short circuits; the snapshot's short-circuit telemetry is dormant")
	}
	if cache.StepsEvaluated >= cache.StepsPossible {
		t.Errorf("short circuiting saved no steps: %d evaluated of %d possible",
			cache.StepsEvaluated, cache.StepsPossible)
	}
}

func TestCompareBenchBaselineSkipsAndErrors(t *testing.T) {
	// New benchmarks (no baseline row) are informational, not failures.
	base := writeBaseline(t, snap(1,
		benchEvalResult{Name: "evaluate_cold", NsPerOp: 1000, AllocsPerOp: 267}))
	cur := snap(1,
		benchEvalResult{Name: "evaluate_cold", NsPerOp: 1000, AllocsPerOp: 267},
		benchEvalResult{Name: "brand_new_bench", NsPerOp: 9999, AllocsPerOp: 99})
	if err := compareBenchBaseline(cur, base); err != nil {
		t.Fatalf("new benchmark must not fail the comparison: %v", err)
	}
	// But zero comparable benchmarks is an error (mismatched snapshot).
	cur2 := snap(8, benchEvalResult{Name: "evaluate_cold", NsPerOp: 1000})
	if err := compareBenchBaseline(cur2, base); err == nil {
		t.Fatal("no comparable benchmarks must be an error")
	}
	if err := compareBenchBaseline(cur, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline must be an error")
	}
}

// TestCompareBenchBaselineMissingRowFails: a baseline row the fresh run no
// longer measures, at a GOMAXPROCS it did re-measure, fails the comparison
// — a retired benchmark must leave the baseline deliberately, not silently
// drop out of the gate. An entry whose GOMAXPROCS was not re-measured
// stays informational.
func TestCompareBenchBaselineMissingRowFails(t *testing.T) {
	base := writeBaseline(t, &benchEvalSnapshot{GoVersion: "go1.24.0", Entries: []benchEvalEntry{
		{GOMAXPROCS: 1, Benchmarks: []benchEvalResult{
			{Name: "evaluate_cold", NsPerOp: 1000, AllocsPerOp: 267},
			{Name: "retired_bench", NsPerOp: 1000},
		}},
		{GOMAXPROCS: 4, Benchmarks: []benchEvalResult{{Name: "retired_bench", NsPerOp: 1000}}},
	}})
	cur := snap(1, benchEvalResult{Name: "evaluate_cold", NsPerOp: 1000, AllocsPerOp: 267})
	if err := compareBenchBaseline(cur, base); err == nil {
		t.Fatal("a baseline row missing from the fresh run must fail")
	}
	cur.Entries[0].Benchmarks = append(cur.Entries[0].Benchmarks, benchEvalResult{Name: "retired_bench", NsPerOp: 1000})
	if err := compareBenchBaseline(cur, base); err != nil {
		t.Fatalf("every GOMAXPROCS=1 row re-measured; the unmeasured GOMAXPROCS=4 entry must not fail: %v", err)
	}
}
