package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"gmr/internal/serve/api"
)

func testMix() mixSpec {
	return mixSpec{
		Days: 3, Param: "CUA", ParamLo: 1, ParamHi: 2,
		RepeatShare: 0.2, RepeatWindow: 16,
		EnsembleShare: 0.1, EnsembleMembers: 4,
		Override: "Vtmp", OverrideLo: 0.9, OverrideHi: 1.1,
	}
}

func TestTrafficMixIsSeededWithExactRepeats(t *testing.T) {
	gen := func() []fcReq {
		return (&traffic{rng: rand.New(rand.NewSource(5)), mix: testMix()}).batch(5000)
	}
	a, b := gen(), gen()
	var ens, rep int
	for i, r := range a {
		if !bytes.Equal(r.body, b[i].body) {
			t.Fatal("same seed, different traffic")
		}
		if r.ensemble {
			ens++
		}
		if r.repeatOf >= 0 {
			rep++
			o := a[r.repeatOf]
			if r.repeatOf >= i || o.ensemble || o.repeatOf >= 0 || !bytes.Equal(o.body, r.body) {
				t.Fatalf("request %d is not an exact repeat of an earlier fresh point request", i)
			}
		}
	}
	if ens != 500 {
		t.Errorf("%d ensembles in 5000, want exactly 10%%", ens)
	}
	if rep < 995 || rep > 1000 {
		t.Errorf("%d repeats in 5000, want 20%% (less any drawn before the first fresh request)", rep)
	}
}

func TestCheckBody(t *testing.T) {
	m := testMix()
	point := fcReq{repeatOf: -1}
	ens := fcReq{ensemble: true, repeatOf: -1}
	good := mustJSON(api.ForecastResponse{Predictions: []float64{1, 2, 3}})
	if err := checkBody(good, point, m); err != nil {
		t.Errorf("valid point body: %v", err)
	}
	for name, body := range map[string][]byte{
		"truncated":   good[:len(good)-3],
		"short":       mustJSON(api.ForecastResponse{Predictions: []float64{1, 2}}),
		"quarantined": mustJSON(api.ForecastResponse{Predictions: []float64{1, 2, 3}, Quarantined: true}),
	} {
		if checkBody(body, point, m) == nil {
			t.Errorf("%s point body accepted", name)
		}
	}

	bands := func(q25 []float64) map[string][]float64 {
		return map[string][]float64{
			"q05": {1, 1, 1}, "q25": q25, "q50": {3, 3, 3}, "q75": {4, 4, 4}, "q95": {5, 5, 5},
		}
	}
	ensBody := func(q25 []float64) []byte {
		return mustJSON(api.ForecastResponse{
			Predictions: []float64{1, 2, 3},
			Ensemble: &api.EnsembleResult{
				Members: 4, Survivors: 4, Bands: bands(q25), Spread: []float64{0, 0, 0},
			},
		})
	}
	if err := checkBody(ensBody([]float64{2, 2, 2}), ens, m); err != nil {
		t.Errorf("valid ensemble body: %v", err)
	}
	if checkBody(ensBody([]float64{2, 0.5, 2}), ens, m) == nil {
		t.Error("ensemble with crossed bands accepted")
	}
	if checkBody(good, ens, m) == nil {
		t.Error("ensemble request answered without an ensemble block accepted")
	}
}

func TestReplaySetIsFixedPerSeed(t *testing.T) {
	fs := &forecastSpec{Mix: testMix(), Replay: replaySpec{Point: 12, Ensemble: 3}}
	a, b := replaySet(9, fs), replaySet(9, fs)
	if len(a) != 15 {
		t.Fatalf("replay set has %d requests, want 15", len(a))
	}
	ens := 0
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatal("same seed, different replay set")
		}
		if a[i].repeatOf >= 0 {
			t.Fatal("replay set contains a repeat")
		}
		if a[i].ensemble {
			ens++
		}
	}
	if ens != 3 {
		t.Fatalf("want 3 ensembles in the set, got %d", ens)
	}
}

func TestCheckCountsLimitMissesOnlyWhenP99Misses(t *testing.T) {
	f := &fcRun{fs: &forecastSpec{P99LimitMs: 50, Mix: testMix()}}
	body := mustJSON(api.ForecastResponse{Predictions: []float64{1, 2, 3}})
	phaseWith := func(slow int, refused int) *phase {
		p := &phase{name: "high"}
		for i := 0; i < 1000; i++ {
			lat := 5 * time.Millisecond
			if i < slow {
				lat = 80 * time.Millisecond
			}
			p.shots = append(p.shots, shot{done: lat})
			p.reqs = append(p.reqs, fcReq{repeatOf: -1})
			p.bodies = append(p.bodies, body)
			status := http.StatusOK
			if i >= 1000-refused {
				status = http.StatusTooManyRequests
			}
			p.status = append(p.status, status)
		}
		f.check(p)
		return p
	}
	if p := phaseWith(10, 0); p.failures() != 0 {
		t.Errorf("10 slow of 1000 keep the p99 under the limit: %d failures, want 0", p.failures())
	}
	if p := phaseWith(11, 0); p.failures() != 11 {
		t.Errorf("11 slow of 1000 push the p99 over the limit: %d failures, want 11", p.failures())
	}
	if p := phaseWith(0, 1); p.failures() != 1 || p.non2xx != 1 {
		t.Errorf("one 429: %d failures (%d non-2xx), want 1", p.failures(), p.non2xx)
	}
}

// TestReplayPassOrderIndependentOfClients checks that a concurrent replay
// pass digests the responses in request order, so its digest equals a
// sequential pass's, and that it times every request's handler interval.
func TestReplayPassOrderIndependentOfClients(t *testing.T) {
	fs := &forecastSpec{Mix: testMix(), Replay: replaySpec{Point: 40}}
	reqs := replaySet(3, fs)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := api.DecodeForecastRequest(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v := req.Params["CUA"]
		w.Write(mustJSON(api.ForecastResponse{Predictions: []float64{v, v, v}}))
	})
	s := &fcServer{h: h}
	_, seq, _, err := replayPass(s, reqs, fs.Mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, con, hs, err := replayPass(s, reqs, fs.Mix, 8)
	if err != nil {
		t.Fatal(err)
	}
	if seq != con {
		t.Fatalf("digest with 8 clients %s, sequential %s", con, seq)
	}
	for i, iv := range hs {
		if iv.start.IsZero() || iv.end.Before(iv.start) {
			t.Fatalf("request %d has no handler interval", i)
		}
	}
}
