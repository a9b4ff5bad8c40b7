package main

import (
	"testing"
	"time"

	"gmr/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func span(name string, startMs, durMs int) obs.SpanRecord {
	return obs.SpanRecord{Name: name, Start: at(startMs), Dur: time.Duration(durMs) * time.Millisecond}
}

func TestCorePhasesFromGPSpans(t *testing.T) {
	// Two runs inside a call over [0, 13000] ms. Run 1 pre-calibrates for
	// 5 s, evolves over [5000, 8000]; run 2 starts after a 1 s gap and
	// evolves over [9000, 12000]; final scoring takes the last second.
	spans := []obs.SpanRecord{
		span("gp.init_pop", 5000, 1000),
		span("evalx.simulate", 5100, 200), // not a gp span: ignored
		span("gp.variation", 6000, 100),
		span("gp.evaluate", 6100, 1500),
		span("gp.refine_elite", 7600, 400),
		span("gp.init_pop", 9000, 1000),
		span("gp.evaluate", 10000, 2000),
		span("gp.init_pop", 20000, 1000), // after the call: ignored
	}
	p, err := corePhases(at(0), at(13000), spans, true)
	if err != nil {
		t.Fatal(err)
	}
	want := phases{precal: 6 * time.Second, evolve: 6 * time.Second, finalize: time.Second, runs: 2}
	if p != want {
		t.Fatalf("corePhases = %+v, want %+v", p, want)
	}
	if p.precal+p.evolve+p.finalize != 13*time.Second {
		t.Fatalf("phases do not add up to the call's wall time")
	}

	// Without pre-calibration the same gaps are per-run set-up, and
	// pre-calibration reads 0.
	p, err = corePhases(at(0), at(13000), spans, false)
	if err != nil {
		t.Fatal(err)
	}
	want = phases{setup: 6 * time.Second, evolve: 6 * time.Second, finalize: time.Second, runs: 2}
	if p != want {
		t.Fatalf("corePhases without pre-calibration = %+v, want %+v", p, want)
	}
}

func TestCorePhasesNoPrecalibration(t *testing.T) {
	spans := []obs.SpanRecord{span("gp.init_pop", 0, 100), span("gp.evaluate", 100, 800)}
	p, err := corePhases(at(0), at(1000), spans, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.precal != 0 || p.setup != 0 || p.evolve != 900*time.Millisecond || p.finalize != 100*time.Millisecond {
		t.Fatalf("corePhases = %+v", p)
	}
}

func TestCorePhasesRequiresInitPop(t *testing.T) {
	if _, err := corePhases(at(0), at(10), nil, true); err == nil {
		t.Error("no spans: want an error")
	}
	if _, err := corePhases(at(0), at(10), []obs.SpanRecord{span("gp.evaluate", 1, 2)}, true); err == nil {
		t.Error("gp spans without gp.init_pop: want an error")
	}
}

func TestSpanBusyCountsOverlapOnce(t *testing.T) {
	spans := []obs.SpanRecord{
		span("evalx.simulate", 0, 10),
		span("evalx.simulate", 5, 10), // overlaps: parallel worker
		span("evalx.simulate", 20, 5),
		span("gp.evaluate", 0, 100),
	}
	busy, n := spanBusy(spans, "evalx.simulate")
	if busy != 20*time.Millisecond || n != 3 {
		t.Fatalf("spanBusy = %v over %d spans, want 20ms over 3", busy, n)
	}
}

func TestAPIOverheadSubtractsServingSpans(t *testing.T) {
	h := interval{at(0), at(10)}
	spans := []obs.SpanRecord{
		span("serve.queue_wait", 1, 3),  // [1,4]
		span("serve.batch_wait", 2, 2),  // [2,4], inside the queue wait
		span("serve.kernel", 4, 1),      // [4,5]
		span("serve.band", 6, 1),        // [6,7]
		span("evalx.simulate", 0, 10),   // not a serving wait
		span("serve.queue_wait", 12, 2), // another request, outside
	}
	if got := apiOverhead(h, spans); got != 5*time.Millisecond {
		t.Fatalf("apiOverhead = %v, want 5ms (10ms handler - [1,5] - [6,7])", got)
	}
	// A span reaching outside the handler is clipped to it.
	clipped := []obs.SpanRecord{span("serve.kernel", 8, 5)}
	if got := apiOverhead(h, clipped); got != 8*time.Millisecond {
		t.Fatalf("apiOverhead with a clipped span = %v, want 8ms", got)
	}
}

func TestCheckRingDetectsOverflow(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Ring: 4})
	for i := 0; i < 4; i++ {
		tr.Start("x").End()
	}
	if err := checkRing(tr, len(tr.Snapshot())); err != nil {
		t.Fatalf("full but not overflowed ring: %v", err)
	}
	tr.Start("x").End()
	if err := checkRing(tr, len(tr.Snapshot())); err == nil {
		t.Fatal("overflowed ring: want an error")
	}
}
