package main

import (
	"math/rand"
	"sync"
	"time"
)

// arrivals returns n Poisson arrival times at rate requests per second,
// as offsets from the start of a phase.
func arrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// shot is one open-loop request's timing, as offsets from the phase start:
// when it was due, when the scheduler actually issued it, and when its
// response was complete.
type shot struct {
	due, sent, done time.Duration
}

// latency is timed from the due time, so a stalled system or a late
// generator is charged to every request it delayed.
func (s shot) latency() time.Duration { return s.done - s.due }

// lateness is how far behind its schedule the generator issued the request.
func (s shot) lateness() time.Duration { return s.sent - s.due }

// openLoop issues request i at due[i] whatever the progress of earlier
// requests: one scheduler sleeps until each due time and starts the
// request on a goroutine of its own. It returns once every request has
// completed. The number of goroutines is bounded by len(due).
func openLoop(due []time.Duration, do func(i int)) []shot {
	shots := make([]shot, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		shots[i].due = d
		shots[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i)
			shots[i].done = time.Since(start)
		}(i)
	}
	wg.Wait()
	return shots
}

// backlogGrowing reports whether latency climbed through a phase: the
// median latency of its last quarter exceeds twice that of its first
// quarter plus slack. A rate the system cannot sustain shows this even
// before its tail crosses the limit.
func backlogGrowing(shots []shot, slack time.Duration) bool {
	q := len(shots) / 4
	if q == 0 {
		return false
	}
	lat := func(ss []shot) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.latency())
		}
		return out
	}
	first, last := median(lat(shots[:q])), median(lat(shots[len(shots)-q:]))
	return last > 2*first+ms(slack)
}
