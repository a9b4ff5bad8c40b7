package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmr/internal/faultinject"
	"gmr/internal/gp"
)

// chaosEvaluator wraps valueEvaluator with deterministic, content-keyed
// fault injection: Panic hits panic mid-evaluation (exercising the engine's
// quarantine path), NaN hits poison the fitness to +Inf exactly the way
// evalx quarantines a non-finite simulation. Decisions are pure functions
// of (fault seed, individual content), so runs with the same fault seed are
// bitwise-reproducible regardless of worker count, island scheduling, or
// resume point.
type chaosEvaluator struct {
	valueEvaluator
	inj *faultinject.Injector
}

func (c *chaosEvaluator) site(ind *gp.Individual) uint64 {
	derived, err := ind.Deriv.Derive()
	if err != nil {
		return faultinject.HashFloats(0, ind.Params)
	}
	return faultinject.HashFloats(faultinject.HashString(derived.String()), ind.Params)
}

func (c *chaosEvaluator) EvaluateCluster(inds []*gp.Individual) { evaluateEach(inds, c.Evaluate) }

func (c *chaosEvaluator) Evaluate(ind *gp.Individual) {
	h := c.site(ind)
	if c.inj.Hit(faultinject.Panic, h) {
		panic(faultinject.InjectedPanic{Site: "orchestrator.test", Hash: h})
	}
	if c.inj.Hit(faultinject.NaN, h) {
		ind.Fitness = math.Inf(1) // evalx quarantines NaN poison to +Inf
		ind.Evaluated = true
		ind.FullEval = true
		return
	}
	c.valueEvaluator.Evaluate(ind)
}

// chaosConfig is testConfig with fault injection threaded through both the
// evaluators (panic + NaN poison) and the orchestrator (checkpoint
// truncation, when the spec asks for it).
func chaosConfig(t *testing.T, seed int64, maxGen int, spec string) Config {
	t.Helper()
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(seed, maxGen)
	cfg.Faults = inj
	cfg.NewEvaluator = func(int) gp.Evaluator {
		return &chaosEvaluator{valueEvaluator: valueEvaluator{target: 7.25}, inj: inj}
	}
	return cfg
}

// TestChaosRunCompletesAndIsDeterministic: a 4-island run where ~5% of
// evaluations panic and ~5% are NaN-poisoned still completes, quarantines
// at least one evaluation, never promotes a quarantined individual, and is
// bitwise-deterministic: a second run with the same fault seed produces
// byte-identical deterministic telemetry and a bit-equal best individual.
func TestChaosRunCompletesAndIsDeterministic(t *testing.T) {
	const spec = "seed=23,panic:0.05,nan:0.05"
	run := func() (*Result, []string, *faultinject.Snapshot) {
		var tele bytes.Buffer
		cfg := chaosConfig(t, 42, 8, spec)
		cfg.Telemetry = &tele
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Interrupted || res.Generations != 8 {
			t.Fatalf("chaos run: interrupted=%v generations=%d, want complete 8",
				res.Interrupted, res.Generations)
		}
		if math.IsInf(res.Best.Fitness, 1) || math.IsNaN(res.Best.Fitness) {
			t.Fatalf("chaos best fitness = %v; quarantined individuals must never win", res.Best.Fitness)
		}
		return res, deterministicLines(t, tele.Bytes(), -1), cfg.Faults.Snapshot()
	}
	resA, linesA, snapA := run()
	resB, linesB, _ := run()

	if snapA.Panics == 0 && snapA.NaNs == 0 {
		t.Fatal("chaos spec injected nothing (suspicious)")
	}
	if math.Float64bits(resA.Best.Fitness) != math.Float64bits(resB.Best.Fitness) {
		t.Fatalf("best fitness differs across identical chaos runs: %v vs %v",
			resA.Best.Fitness, resB.Best.Fitness)
	}
	if len(linesA) != len(linesB) {
		t.Fatalf("telemetry line count differs: %d vs %d", len(linesA), len(linesB))
	}
	for i := range linesA {
		if linesA[i] != linesB[i] {
			t.Errorf("telemetry line %d differs:\nrun A %s\nrun B %s", i, linesA[i], linesB[i])
		}
	}
}

// TestChaosResumeMatchesContinuous: under the same fault seed, a chaos run
// interrupted at the halfway barrier and resumed from its checkpoint
// produces a best individual bit-identical to the continuous chaos run.
// (Telemetry quarantine counters are per-process and restart on resume, so
// this test compares final results, not telemetry bytes.)
func TestChaosResumeMatchesContinuous(t *testing.T) {
	const (
		spec = "seed=23,panic:0.05,nan:0.05"
		G    = 8
	)

	contCfg := chaosConfig(t, 42, G, spec)
	contOrch, err := New(contCfg)
	if err != nil {
		t.Fatal(err)
	}
	contRes, err := contOrch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tee := &cancelAtGen{target: G / 2, cancel: cancel}
	halfCfg := chaosConfig(t, 42, G, spec)
	halfCfg.CheckpointPath = ckPath
	halfCfg.Telemetry = tee
	halfOrch, err := New(halfCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := halfOrch.Run(ctx); err != nil {
		t.Fatal(err)
	}

	resCfg := chaosConfig(t, 42, G, spec)
	resOrch, err := New(resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resOrch.Resume(ckPath); err != nil {
		t.Fatal(err)
	}
	resRes, err := resOrch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got, want := math.Float64bits(resRes.Best.Fitness), math.Float64bits(contRes.Best.Fitness); got != want {
		t.Errorf("best fitness differs: resumed %x (%v) vs continuous %x (%v)",
			got, resRes.Best.Fitness, want, contRes.Best.Fitness)
	}
	if got, want := resRes.Best.Deriv.String(), contRes.Best.Deriv.String(); got != want {
		t.Errorf("best derivation differs:\nresumed    %s\ncontinuous %s", got, want)
	}
	for i := range resRes.Best.Params {
		if math.Float64bits(resRes.Best.Params[i]) != math.Float64bits(contRes.Best.Params[i]) {
			t.Errorf("best param %d differs: %v vs %v", i, resRes.Best.Params[i], contRes.Best.Params[i])
		}
	}
	if resRes.BestIsland != contRes.BestIsland {
		t.Errorf("best island differs: %d vs %d", resRes.BestIsland, contRes.BestIsland)
	}
}

// TestCheckpointBackupRotation: with a per-generation cadence, the writer
// rotates the previous checkpoint to .bak before installing the new one,
// and both files load.
func TestCheckpointBackupRotation(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")
	cfg := testConfig(5, 4)
	cfg.CheckpointPath = ckPath
	cfg.CheckpointEvery = 1
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("primary checkpoint unreadable: %v", err)
	}
	bak, err := LoadCheckpoint(BackupPath(ckPath))
	if err != nil {
		t.Fatalf("backup checkpoint unreadable: %v", err)
	}
	if bak.Gen >= ck.Gen {
		t.Errorf("backup gen %d is not older than primary gen %d", bak.Gen, ck.Gen)
	}
}

// TestResumeFallsBackToBackup: when the primary checkpoint is corrupt but a
// healthy .bak exists, Resume recovers from the backup, emits a
// checkpoint_fallback telemetry record, and the run completes its budget.
func TestResumeFallsBackToBackup(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")
	cfg := testConfig(5, 6)
	cfg.CheckpointPath = ckPath
	cfg.CheckpointEvery = 1
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Corrupt the primary the way a torn write would: cut it in half.
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var tele bytes.Buffer
	cfg2 := testConfig(5, 6)
	cfg2.Telemetry = &tele
	o2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := o2.Resume(ckPath); err != nil {
		t.Fatalf("Resume did not fall back to %s: %v", BackupPath(ckPath), err)
	}
	var rec struct {
		Type   string `json:"type"`
		Backup string `json:"backup"`
		Error  string `json:"error"`
	}
	line := strings.TrimSpace(tele.String())
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("bad fallback telemetry %q: %v", line, err)
	}
	if rec.Type != "checkpoint_fallback" || rec.Backup != BackupPath(ckPath) || rec.Error == "" {
		t.Errorf("fallback record = %+v, want type=checkpoint_fallback backup=%s with an error",
			rec, BackupPath(ckPath))
	}
	res, err := o2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || res.Generations != 6 {
		t.Errorf("recovered run: interrupted=%v generations=%d, want complete 6",
			res.Interrupted, res.Generations)
	}
}

// TestResumeBothCorruptFails: when the primary and the backup are both
// unreadable, Resume reports a combined error naming the fallback failure.
func TestResumeBothCorruptFails(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")
	if err := os.WriteFile(ckPath, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(BackupPath(ckPath), []byte("also torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := New(testConfig(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	err = o.Resume(ckPath)
	if err == nil {
		t.Fatal("Resume accepted a run with both checkpoint copies corrupt")
	}
	if !strings.Contains(err.Error(), "fallback") {
		t.Errorf("error %q does not mention the failed fallback", err)
	}
}

// TestTruncationFaultTearsPrimary: with trunc:1, every checkpoint write is
// torn in half before the atomic rename, so the primary never parses; the
// injector tallies the truncations.
func TestTruncationFaultTearsPrimary(t *testing.T) {
	inj, err := faultinject.Parse("seed=7,trunc:1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")
	cfg := testConfig(5, 3)
	cfg.CheckpointPath = ckPath
	cfg.CheckpointEvery = 1
	cfg.Faults = inj
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(ckPath); err == nil {
		t.Error("trunc:1 left a parseable primary checkpoint")
	}
	if s := inj.Snapshot(); s.Truncations == 0 {
		t.Error("trunc:1 tallied no truncations")
	}
}
