package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gmr/internal/bio"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/experiments"
	"gmr/internal/expr"
	"gmr/internal/gp"
	"gmr/internal/obs"
	"gmr/internal/serve"
	"gmr/internal/serve/api"
)

// scratchDir is where the forecast workload writes its model bundle,
// relative to the directory the benchmark runs in.
const scratchDir = ".bench_build"

// fcReq is one generated /v2/forecast request.
type fcReq struct {
	body     []byte
	ensemble bool
	repeatOf int // index of the request it repeats exactly, or -1
}

// traffic generates the seeded request mix: 365-day point forecasts whose
// parameter overrides come from a seeded pool and share one cohort key, a
// share of them exact repeats of a recent point request, and a share of
// ensemble forecasts each under its own forcing override.
type traffic struct {
	rng *rand.Rand
	mix mixSpec
}

const (
	kindPoint = iota
	kindRepeat
	kindEnsemble
)

// batch generates one phase of n requests. The shares are exact (rounded
// to whole requests) and the kinds are shuffled into seeded positions, so
// two seeds differ in order and values but not in how much work they ask
// for. Repeats refer to fresh point requests earlier in the same batch.
func (t *traffic) batch(n int) []fcReq {
	m := t.mix
	kinds := make([]int, n)
	nEns := int(math.Round(float64(n) * m.EnsembleShare))
	nRep := int(math.Round(float64(n) * m.RepeatShare))
	for i := range kinds {
		switch {
		case i < nEns:
			kinds[i] = kindEnsemble
		case i < nEns+nRep:
			kinds[i] = kindRepeat
		}
	}
	t.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	reqs := make([]fcReq, 0, n)
	var recent []int // indexes of recent fresh point requests
	for _, k := range kinds {
		r := fcReq{repeatOf: -1}
		if k == kindRepeat && len(recent) == 0 {
			k = kindPoint
		}
		switch k {
		case kindEnsemble:
			v := m.OverrideLo + (m.OverrideHi-m.OverrideLo)*t.rng.Float64()
			r.ensemble = true
			r.body = mustJSON(api.ForecastRequest{
				Days:      m.Days,
				Overrides: map[string]float64{m.Override: v},
				Ensemble:  &api.EnsembleSpec{Members: m.EnsembleMembers},
			})
		case kindRepeat:
			j := recent[t.rng.Intn(len(recent))]
			r.body, r.repeatOf = reqs[j].body, j
		default:
			v := m.ParamLo + (m.ParamHi-m.ParamLo)*t.rng.Float64()
			r.body = mustJSON(api.ForecastRequest{Days: m.Days, Params: map[string]float64{m.Param: v}})
			recent = append(recent, len(reqs))
			if len(recent) > m.RepeatWindow {
				recent = recent[1:]
			}
		}
		reqs = append(reqs, r)
	}
	return reqs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request DTOs always encode
	}
	return b
}

// post sends one request through the server's handler in-process.
func post(h http.Handler, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v2/forecast", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// checkBody validates a 200 response: a full-horizon finite point
// forecast, or for ensembles a full set of ordered, finite quantile bands.
func checkBody(body []byte, r fcReq, m mixSpec) error {
	var resp api.ForecastResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("malformed body: %v", err)
	}
	if resp.Quarantined {
		return fmt.Errorf("forecast quarantined (%s at day %d)", resp.Reason, resp.Died)
	}
	if len(resp.Predictions) != m.Days {
		return fmt.Errorf("%d predictions, want %d", len(resp.Predictions), m.Days)
	}
	if !finite(resp.Predictions) {
		return fmt.Errorf("non-finite prediction")
	}
	if !r.ensemble {
		return nil
	}
	e := resp.Ensemble
	if e == nil || e.Members != m.EnsembleMembers || e.Survivors != m.EnsembleMembers || len(e.Spread) != m.Days || !finite(e.Spread) {
		return fmt.Errorf("malformed ensemble block")
	}
	qs := api.DefaultQuantiles()
	for k, q := range qs {
		band := e.Bands[api.BandName(q)]
		if len(band) != m.Days || !finite(band) {
			return fmt.Errorf("band %s malformed", api.BandName(q))
		}
		if k == 0 {
			continue
		}
		lower := e.Bands[api.BandName(qs[k-1])]
		for d := range band {
			if band[d] < lower[d] {
				return fmt.Errorf("band %s below %s on day %d", api.BandName(q), api.BandName(qs[k-1]), d)
			}
		}
	}
	return nil
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// writeBundle writes the served model: the unrevised MANUAL model with a
// seeded posterior jittered ±2.5% of each parameter's Table III box, so
// every ensemble member simulates the whole horizon.
func writeBundle(dir string, seed int64, samples int) error {
	ind, g, err := core.ManualIndividual(core.Config{})
	if err != nil {
		return err
	}
	bundle, err := gp.NewBundle(ind, g, "perfbench",
		serve.ConfigDigest(bio.DefaultConstants(), dataset.ModelSimConfig(2, 0, 0)))
	if err != nil {
		return err
	}
	consts := bio.DefaultConstants()
	rng := rand.New(rand.NewSource(seed))
	post := make([][]float64, samples)
	for i := range post {
		v := append([]float64(nil), ind.Params...)
		for j := range v {
			v[j] += 0.05 * (consts[j].Max - consts[j].Min) * (rng.Float64() - 0.5)
			v[j] = math.Min(math.Max(v[j], consts[j].Min), consts[j].Max)
		}
		post[i] = v
	}
	bundle.Posterior = gp.NewBundlePosterior("DREAM", post)
	// A fixed save time keeps the bundle, and so the model version echoed
	// in every response, identical across invocations.
	bundle.SavedAt = time.Unix(0, 0).UTC()
	var buf bytes.Buffer
	if err := bundle.Write(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "champion.json"), buf.Bytes(), 0o644)
}

// fcServer is one set-up server and what it publishes.
type fcServer struct {
	srv *serve.Server
	h   http.Handler
	reg *obs.Registry
	tr  *obs.Tracer
}

func newServer(ds *dataset.Dataset, dir string, tr *obs.Tracer) (*fcServer, error) {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{Dataset: ds, ModelsDir: dir, Obs: reg, Tracer: tr})
	if err != nil {
		return nil, err
	}
	ready := false
	for _, m := range srv.Registry().Models() {
		ready = ready || m.Ready()
	}
	if !ready {
		srv.Close()
		return nil, fmt.Errorf("the served bundle was rejected")
	}
	return &fcServer{srv: srv, h: srv.Handler(), reg: reg, tr: tr}, nil
}

// phase is one open-loop load level's outcome.
type phase struct {
	name        string
	rate        float64
	shots       []shot
	reqs        []fcReq
	status      []int
	bodies      [][]byte
	start, end  time.Time
	non2xx      int
	overLimit   int
	bad         int
	problems    []string
	regDelta    map[string]float64
	lat, late   []float64
	growingLoad bool
}

// runPhase offers n requests at rate in an open loop; check validates
// the responses afterwards, outside the phase's timing.
func (f *fcRun) runPhase(s *fcServer, name string, rate float64, n int) *phase {
	p := &phase{name: name, rate: rate, reqs: f.traffic.batch(n)}
	p.status = make([]int, n)
	p.bodies = make([][]byte, n)
	due := arrivals(f.rng, rate, n)
	before := s.reg.Snapshot()
	p.start = time.Now()
	p.shots = openLoop(due, func(i int) {
		p.status[i], p.bodies[i] = post(s.h, p.reqs[i].body)
	})
	p.end = time.Now()
	after := s.reg.Snapshot()
	p.regDelta = map[string]float64{}
	for k, v := range after {
		p.regDelta[k] = v - before[k]
	}
	return p
}

// check times every request from its due time and counts the refused and
// malformed responses; an exact repeat must return the original's bytes.
// When the phase's p99 misses the limit, every request over the limit
// counts as failed as well. Under the limit, the slowest 1% are what a p99
// target allows.
func (f *fcRun) check(p *phase) {
	limit := f.fs.P99LimitMs
	problem := func(format string, args ...any) {
		if len(p.problems) < 5 {
			p.problems = append(p.problems, fmt.Sprintf(p.name+": "+format, args...))
		}
	}
	for i, sh := range p.shots {
		l := ms(sh.latency())
		p.late = append(p.late, ms(sh.lateness()))
		if p.status[i] < 200 || p.status[i] > 299 {
			p.non2xx++
			problem("request %d: HTTP %d", i, p.status[i])
			l = math.Inf(1) // a refused request misses every latency limit
		} else if err := checkBody(p.bodies[i], p.reqs[i], f.fs.Mix); err != nil {
			p.bad++
			problem("request %d: %v", i, err)
		} else if j := p.reqs[i].repeatOf; j >= 0 && p.status[j] == http.StatusOK && !bytes.Equal(p.bodies[i], p.bodies[j]) {
			p.bad++
			problem("request %d: an exact repeat returned other bytes than request %d", i, j)
		}
		p.lat = append(p.lat, l)
	}
	if p99 := percentile(p.lat, 99); p99 > limit {
		for _, l := range p.lat {
			if l > limit && !math.IsInf(l, 1) {
				p.overLimit++
			}
		}
		problem("p99 %.3gms misses the %.3gms limit; %d answered requests over it", p99, limit, p.overLimit)
	}
	p.growingLoad = backlogGrowing(p.shots, time.Duration(limit*float64(time.Millisecond)/5))
	p.bodies = nil
}

// failures is the number of failed requests of a measured phase.
func (p *phase) failures() int { return p.non2xx + p.bad + p.overLimit }

// meets reports whether a ladder rung holds the p99 limit with no refused
// request and no growing backlog.
func (p *phase) meets(limit float64) bool {
	pct, ok := tailPercentile(len(p.lat))
	return ok && pct >= 99 && p.non2xx == 0 && p.bad == 0 && !p.growingLoad && percentile(p.lat, 99) <= limit
}

// rung runs one ladder rung and prints its outcome.
func (f *fcRun) rung(s *fcServer, rate float64) bool {
	p := f.runPhase(s, "ladder", rate, f.fs.Ladder.RungRequests)
	f.check(p)
	ok := p.meets(f.fs.P99LimitMs)
	f.note("ladder rung %.0f rps: p50 %.4gms p99 %.4gms, %d non-2xx, backlog growing=%v, holds=%v",
		rate, percentile(p.lat, 50), percentile(p.lat, 99), p.non2xx, p.growingLoad, ok)
	return ok
}

type fcRun struct {
	*bench
	fs      *forecastSpec
	rng     *rand.Rand
	traffic *traffic
}

func runForecast(b *bench) error {
	fs := &b.sp.Forecast
	f := &fcRun{bench: b, fs: fs, rng: rand.New(rand.NewSource(b.seed))}
	f.traffic = &traffic{rng: rand.New(rand.NewSource(b.seed ^ 0x7e57)), mix: fs.Mix}

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "models-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := writeBundle(dir, b.seed, fs.Mix.Posterior); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}

	// Set-up: dataset generation and server construction (registry load,
	// compile, validation simulation), setup_reps times. The first
	// replay.passes servers then answer the fixed replay set as a
	// closed-loop burst from replay.clients concurrent clients, on cold
	// caches, so point cohorts close on MaxBatch rather than on the batch
	// window; the passes must agree bit for bit, and all but the first are
	// timed. When traced, the last of them carries a tracer, and the
	// server after it answers the set one request at a time under a tracer
	// of its own, for api.overhead_ms.
	replay := replaySet(b.seed, fs)
	var (
		setups, gens, news, walls []float64
		firstDigest               string
		overheads                 []float64
		tracedWall                float64
		ds                        *dataset.Dataset
	)
	for i := 0; i < b.sp.SetupReps; i++ {
		tracedPass, apiPass := b.traced && i == fs.Replay.Passes-1, b.traced && i == fs.Replay.Passes
		var tr *obs.Tracer
		if tracedPass || apiPass {
			tr = obs.NewTracer(obs.TracerConfig{Ring: b.sp.TraceRing})
		}
		t0 := time.Now()
		d, err := experiments.DefaultDataset(b.sp.DatasetSeed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		s, err := newServer(d, dir, tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		gens = append(gens, t1.Sub(t0).Seconds())
		news = append(news, t2.Sub(t1).Seconds())
		ds = d
		if i >= fs.Replay.Passes && !apiPass {
			s.srv.Close()
			continue
		}
		clients := fs.Replay.Clients
		if apiPass {
			clients = 1
		}
		wall, dg, hs, err := replayPass(s, replay, fs.Mix, clients)
		s.srv.Close()
		if err == nil && i > 0 && dg != firstDigest {
			err = fmt.Errorf("replay pass %d is not bitwise identical to pass 0", i)
		}
		if i == 0 {
			firstDigest = dg
		}
		b.op(err)
		if tr == nil {
			// Pass 0 warms the process (heap growth, first-touch pages)
			// and is checked but not timed.
			if i > 0 {
				walls = append(walls, wall.Seconds())
			}
			continue
		}
		spans := tr.Snapshot()
		if err := checkRing(tr, len(spans)); err != nil {
			b.op(err)
		}
		if tracedPass {
			tracedWall = wall.Seconds()
			ens := len(spanDurations(spans, "serve.band", t2, time.Now()))
			members := len(spanDurations(spans, "serve.queue_wait", t2, time.Now())) - ens
			cohorts := len(spanDurations(spans, "serve.batch_wait", t2, time.Now())) - ens
			b.note("traced replay pass: %d point requests in %d cohorts (mean size %.3g), %d ensembles", members, cohorts, ratio(float64(members), float64(cohorts)), ens)
			continue
		}
		for _, h := range hs {
			overheads = append(overheads, ms(apiOverhead(h, spans)))
		}
	}
	b.setE2E("setup_s", median(setups), len(setups))
	b.setLayer("dataset.generate_s", median(gens), len(gens))
	b.setLayer("serve.new_s", median(news), len(news))
	b.setE2E("wall_s", median(walls), len(walls))
	b.checkDigest(firstDigest)
	if b.traced {
		b.setLayer("api.overhead_ms.p50", median(overheads), len(overheads))
		b.setLayer("trace.overhead_s", tracedWall-median(walls), 1)
		b.note("tracing overhead %.4gs: traced replay pass %.4gs - untraced %.4gs", tracedWall-median(walls), tracedWall, median(walls))
	}
	b.note("replay set of %d requests from %d clients: pass walls %.4v s, %s", len(replay), fs.Replay.Clients, walls, spread(walls))

	// Open loop on a fresh server: the two fixed rates, then the ladder.
	var tr *obs.Tracer
	if b.traced {
		tr = obs.NewTracer(obs.TracerConfig{Ring: b.sp.TraceRing})
	}
	s, err := newServer(ds, dir, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer s.srv.Close()
	low := f.runPhase(s, "low", fs.Low.Rate, f.phaseRequests(fs.Low))
	high := f.runPhase(s, "high", fs.High.Rate, f.phaseRequests(fs.High))
	f.check(low)
	f.check(high)
	for _, p := range []*phase{low, high} {
		b.attempted += len(p.reqs)
		b.failed += p.failures()
		b.problems = append(b.problems, p.problems...)
	}
	maxRPS, rungs := f.ladder(s, high)
	f.report(s, low, high, maxRPS, rungs)
	return nil
}

// replaySet is the fixed, seeded replay set: distinct point and ensemble
// requests and no repeats (each pass runs on a cold server, so a repeat
// would only time the response cache).
func replaySet(seed int64, fs *forecastSpec) []fcReq {
	m := fs.Mix
	n := fs.Replay.Point + fs.Replay.Ensemble
	m.RepeatShare, m.EnsembleShare = 0, float64(fs.Replay.Ensemble)/float64(n)
	return (&traffic{rng: rand.New(rand.NewSource(seed ^ 0x4e91a7)), mix: m}).batch(n)
}

// replayPass answers the replay set as a closed loop: each of clients
// goroutines takes the next unsent request and sends it once its previous
// response is complete. It returns the pass's wall time, the digest of
// every response byte in request order, and each request's handler
// interval.
func replayPass(s *fcServer, reqs []fcReq, m mixSpec, clients int) (time.Duration, string, []interval, error) {
	codes := make([]int, len(reqs))
	bodies := make([][]byte, len(reqs))
	hs := make([]interval, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				codes[i], bodies[i] = post(s.h, reqs[i].body)
				hs[i] = interval{t0, time.Now()}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var d digest
	var firstErr error
	for i, r := range reqs {
		d.str(string(bodies[i]))
		if firstErr == nil {
			if codes[i] != http.StatusOK {
				firstErr = fmt.Errorf("replay request %d: HTTP %d", i, codes[i])
			} else if err := checkBody(bodies[i], r, m); err != nil {
				firstErr = fmt.Errorf("replay request %d: %v", i, err)
			}
		}
	}
	return wall, d.sum(), hs, firstErr
}

// phaseRequests sizes a phase: its share of the window at its rate, and
// never fewer than min_requests so its p99 has ten samples beyond it.
func (f *fcRun) phaseRequests(p phaseSpec) int {
	n := int(p.Rate * p.WindowShare * f.window.Seconds())
	if n < p.MinRequests {
		n = p.MinRequests
	}
	return n
}

// ladder climbs geometric rates from the ladder start until a rung misses
// the p99 limit or its backlog grows, then bisects between the last rung
// that held and the first that did not. max_rps is the highest rate that
// held.
func (f *fcRun) ladder(s *fcServer, high *phase) (float64, int) {
	l := f.fs.Ladder
	limit := f.fs.P99LimitMs
	pass, fail := 0.0, 0.0
	if high.meets(limit) {
		pass = high.rate
	}
	rungs := 0
	for r := l.Start; rungs < l.MaxRungs; r *= l.Factor {
		rungs++
		if !f.rung(s, r) {
			fail = r
			break
		}
		pass = r
	}
	if fail == 0 {
		f.note("ladder: every rung up to %.0f rps held the limit; max_rps is a lower bound", pass)
		return pass, rungs
	}
	for i := 0; i < l.BisectSteps; i++ {
		lo := math.Max(pass, fail/l.Factor)
		mid := math.Sqrt(lo * fail)
		rungs++
		if f.rung(s, mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, rungs
}

// report fills the serving, ensemble, API and generator metrics.
func (f *fcRun) report(s *fcServer, low, high *phase, maxRPS float64, rungs int) {
	b := f.bench
	limit := f.fs.P99LimitMs
	for _, p := range []*phase{low, high} {
		pct, _ := tailPercentile(len(p.lat))
		b.note("%s: %d requests at %.0f rps, p50 %.4gms, p%g %.4gms (limit %.4gms), %d non-2xx, %d malformed, %d over the limit, backlog growing=%v",
			p.name, len(p.lat), p.rate, percentile(p.lat, 50), pct, percentile(p.lat, pct), limit, p.non2xx, p.bad, p.overLimit, p.growingLoad)
		for _, pr := range p.problems {
			b.note("  %s", pr)
		}
		b.setLayer("p50_ms."+p.name, percentile(p.lat, 50), len(p.lat))
		if pct >= 99 {
			b.setLayer("p99_ms."+p.name, percentile(p.lat, 99), len(p.lat))
		} else {
			b.op(fmt.Errorf("%s: %d requests are too few for a p99", p.name, len(p.lat)))
		}
		b.setLayer("requests."+p.name, float64(len(p.lat)), len(p.lat))
		f.serveLayers(s, p)
	}
	b.setLayer("max_rps", maxRPS, rungs)
	b.setLayer("requests.ladder_rungs", float64(rungs), rungs)
	b.note("max_rps %.1f after %d ladder rungs", maxRPS, rungs)
	late := append(append([]float64(nil), low.late...), high.late...)
	if pct, ok := tailPercentile(len(late)); ok && pct >= 99 {
		b.setLayer("gen.late_ms.p99", percentile(late, 99), len(late))
	}
	b.note("generator lateness: p50 %.4gms, p99 %.4gms over %d requests", percentile(late, 50), percentile(late, 99), len(late))

	d := func(k string) float64 { return low.regDelta[k] + high.regDelta[k] }
	b.setLayer("serve.shed", d(`gmr_serve_requests_total{code="shed"}`), len(late))
	b.setLayer("serve.deadline_drops", d("gmr_serve_deadline_drops_total"), len(late))
	b.setLayer("ensemble.member_quarantines", d("gmr_serve_ensemble_member_quarantines_total"), len(late))

	if s.tr == nil {
		return
	}
	spans := s.tr.Snapshot()
	b.setLayer("trace.spans", float64(len(spans)), len(spans))
	gpSpans := 0
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "gp.") {
			gpSpans++
		}
	}
	b.note("%d spans recorded, %d of them gp.* spans", len(spans), gpSpans)
	if err := checkRing(s.tr, len(spans)); err != nil {
		b.op(err)
		return
	}
	lowBatch := spanDurations(spans, "serve.batch_wait", low.start, low.end)
	b.setLayer("serve.batch_wait_ms.p50", median(lowBatch), len(lowBatch))
	q := spanDurations(spans, "serve.queue_wait", high.start, high.end)
	if pct, ok := tailPercentile(len(q)); ok && pct >= 99 {
		b.setLayer("serve.queue_wait_ms.p99", percentile(q, 99), len(q))
	}
	k := spanDurations(spans, "serve.kernel", high.start, high.end)
	b.setLayer("serve.kernel_ms.p50", median(k), len(k))
	band := append(spanDurations(spans, "serve.band", low.start, low.end), spanDurations(spans, "serve.band", high.start, high.end)...)
	b.setLayer("ensemble.band_ms.p50", median(band), len(band))
}

// serveLayers derives a phase's cohort, lane and cache figures from its
// spans and registry deltas. Ensemble requests each carry their own
// forcing override, so each is a cohort of one running members/8 full
// lane launches; they are taken out to leave the point-forecast cohorts.
func (f *fcRun) serveLayers(s *fcServer, p *phase) {
	b := f.bench
	d := p.regDelta
	hits, misses := d["gmr_serve_response_cache_hits_total"], d["gmr_serve_response_cache_misses_total"]
	phits, pmisses := d["gmr_serve_plan_cache_hits_total"], d["gmr_serve_plan_cache_misses_total"]
	if p.name == "high" {
		b.setLayer("serve.response_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
		b.setLayer("serve.plan_cache_hit_ratio", ratio(phits, phits+pmisses), int(phits+pmisses))
	}
	if s.tr == nil {
		return
	}
	spans := s.tr.Snapshot()
	ens := float64(len(spanDurations(spans, "serve.band", p.start, p.end)))
	members := float64(len(spanDurations(spans, "serve.queue_wait", p.start, p.end))) - ens
	cohorts := float64(len(spanDurations(spans, "serve.batch_wait", p.start, p.end))) - ens
	b.setLayer("serve.cohort_size."+p.name, ratio(members, cohorts), int(cohorts))
	perEns := math.Ceil(float64(f.fs.Mix.EnsembleMembers) / expr.Lanes)
	laneMembers := d["gmr_serve_lane_members_total"] - ens*float64(f.fs.Mix.EnsembleMembers)
	launches := d["gmr_serve_lane_batches_total"] - ens*perEns
	b.setLayer("serve.lane_fill."+p.name, ratio(laneMembers, launches*expr.Lanes), int(launches))
}
