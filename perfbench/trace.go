package main

import (
	"errors"
	"sort"
	"strings"
	"time"

	"gmr/internal/obs"
)

// interval is a closed span of wall time.
type interval struct{ start, end time.Time }

func spanInterval(s obs.SpanRecord) interval { return interval{s.Start, s.Start.Add(s.Dur)} }

// unionLen is the wall time covered by at least one interval.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// spanBusy is a layer's busy time: the wall time during which at least one
// span of that name was open (parallel workers are not double counted),
// with the number of spans it is built from.
func spanBusy(spans []obs.SpanRecord, name string) (time.Duration, int) {
	var ivs []interval
	for _, s := range spans {
		if s.Name == name {
			ivs = append(ivs, spanInterval(s))
		}
	}
	return unionLen(ivs), len(ivs)
}

// spanDurations returns the durations of the named spans whose start lies
// in [from, to].
func spanDurations(spans []obs.SpanRecord, name string, from, to time.Time) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && !s.Start.Before(from) && !s.Start.After(to) {
			out = append(out, ms(s.Dur))
		}
	}
	return out
}

// phases is the core-layer breakdown of one core.RunContext call.
type phases struct {
	precal, setup, evolve, finalize time.Duration
	runs                            int
}

// corePhases splits a timed core.RunContext call into its phases from the
// gp.* spans the engine records. Each evolutionary run opens with a
// gp.init_pop span. The gap before it holds the run's set-up (grammar,
// evaluator and engine construction) and, when precal is set, its
// pre-calibration; no span separates the two, so the gap counts as
// pre-calibration when precal is set and as set-up otherwise. The stretch
// from gp.init_pop to the run's last gp span is evolution, and the tail
// after the last gp span is final scoring.
func corePhases(start, end time.Time, spans []obs.SpanRecord, precal bool) (phases, error) {
	var gp []obs.SpanRecord
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "gp.") && !s.Start.Before(start) && !s.Start.After(end) {
			gp = append(gp, s)
		}
	}
	sort.SliceStable(gp, func(i, j int) bool { return gp[i].Start.Before(gp[j].Start) })
	if len(gp) == 0 || gp[0].Name != "gp.init_pop" {
		return phases{}, errors.New("core phases: the call recorded no gp.init_pop span before its other gp spans")
	}
	var p phases
	gap := &p.setup
	if precal {
		gap = &p.precal
	}
	cursor := start
	var runStart, lastEnd time.Time
	for _, s := range gp {
		if s.Name == "gp.init_pop" {
			if p.runs > 0 {
				p.evolve += lastEnd.Sub(runStart)
				cursor = lastEnd
			}
			*gap += s.Start.Sub(cursor)
			runStart = s.Start
			p.runs++
		}
		if e := s.Start.Add(s.Dur); e.After(lastEnd) {
			lastEnd = e
		}
	}
	p.evolve += lastEnd.Sub(runStart)
	p.finalize = end.Sub(lastEnd)
	return p, nil
}

// waitSpans are the serving spans a forecast request spends outside the
// HTTP/API layer: admission queue, batch window, kernel and band
// reduction.
var waitSpans = map[string]bool{
	"serve.queue_wait": true,
	"serve.batch_wait": true,
	"serve.kernel":     true,
	"serve.band":       true,
}

// apiOverhead is the part of one request's handler time not covered by
// the queue, batch, kernel and band spans (their union, clipped to the
// handler interval). It is exact only when requests run one at a time, so
// that every span inside the interval belongs to that request.
func apiOverhead(h interval, spans []obs.SpanRecord) time.Duration {
	var ivs []interval
	for _, s := range spans {
		if !waitSpans[s.Name] {
			continue
		}
		iv := spanInterval(s)
		if iv.end.Before(h.start) || iv.start.After(h.end) {
			continue
		}
		if iv.start.Before(h.start) {
			iv.start = h.start
		}
		if iv.end.After(h.end) {
			iv.end = h.end
		}
		ivs = append(ivs, iv)
	}
	return h.end.Sub(h.start) - unionLen(ivs)
}

// checkRing fails when the tracer recorded more spans than it kept, so a
// breakdown is never built from a sampled-away remainder.
func checkRing(t *obs.Tracer, kept int) error {
	_, recorded, _ := t.Stats()
	if int64(kept) != recorded {
		return errors.New("trace ring overflow: recorded spans exceed the retained spans; raise trace_ring in spec.json")
	}
	return nil
}
