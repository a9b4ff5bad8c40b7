package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestShotTimesLatencyFromDue(t *testing.T) {
	s := shot{due: 10 * time.Millisecond, sent: 12 * time.Millisecond, done: 30 * time.Millisecond}
	if s.latency() != 20*time.Millisecond {
		t.Errorf("latency = %v, want 20ms (from the due time, not the send time)", s.latency())
	}
	if s.lateness() != 2*time.Millisecond {
		t.Errorf("lateness = %v, want 2ms", s.lateness())
	}
}

func TestArrivalsArePoissonAndSeeded(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(3)), 1000, 20000)
	b := arrivals(rand.New(rand.NewSource(3)), 1000, 20000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedule")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("arrival times are not increasing")
		}
	}
	mean := a[len(a)-1].Seconds() / float64(len(a))
	if mean < 0.00095 || mean > 0.00105 {
		t.Errorf("mean gap %.6fs, want about 1ms at 1000 rps", mean)
	}
}

func TestOpenLoopDoesNotWaitForResponses(t *testing.T) {
	// 40 requests due 2ms apart, each taking 30ms. A closed loop would take
	// 1.2s; the open loop issues each on time and ends about 30ms after
	// the last due time.
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	shots := openLoop(due, func(int) { time.Sleep(30 * time.Millisecond) })
	var last time.Duration
	for i, s := range shots {
		if s.due != due[i] {
			t.Fatalf("shot %d due %v, want %v", i, s.due, due[i])
		}
		if s.lateness() < 0 || s.lateness() > 25*time.Millisecond {
			t.Errorf("shot %d issued %v late", i, s.lateness())
		}
		if s.latency() < 30*time.Millisecond {
			t.Errorf("shot %d latency %v is shorter than its work", i, s.latency())
		}
		if s.done > last {
			last = s.done
		}
	}
	if last > 600*time.Millisecond {
		t.Errorf("open loop took %v: the scheduler waited for responses", last)
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]shot, 100)
	growing := make([]shot, 100)
	for i := range flat {
		due := time.Duration(i) * time.Millisecond
		flat[i] = shot{due: due, sent: due, done: due + 3*time.Millisecond}
		growing[i] = shot{due: due, sent: due, done: due + time.Duration(1+i)*time.Millisecond}
	}
	if backlogGrowing(flat, time.Millisecond) {
		t.Error("flat latency reported as a growing backlog")
	}
	if !backlogGrowing(growing, time.Millisecond) {
		t.Error("latency climbing 1ms per request not reported as a growing backlog")
	}
}
