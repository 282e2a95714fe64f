package main

import (
	"testing"
	"time"
)

// virtualClock is a deterministic clock for the pacer: sleeping advances
// it by the request plus a fixed overshoot, issuing a command by its
// service time.
type virtualClock struct {
	t         time.Time
	oversleep time.Duration
}

func (v *virtualClock) clock() clock {
	return clock{
		now:   func() time.Time { return v.t },
		sleep: func(d time.Duration) { v.t = v.t.Add(d + v.oversleep) },
	}
}

// everyMs schedules n arrivals one millisecond apart.
func everyMs(n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * time.Millisecond
	}
	return due
}

// paceVirtual runs the pacer on v with a fixed service time, plus stall
// extra on arrival stallAt, and returns every arrival's outcome.
func paceVirtual(v *virtualClock, due []time.Duration, service time.Duration, stallAt int, stall time.Duration) ([]paced, int) {
	c := v.clock()
	out := make([]paced, len(due))
	issue := func(i int) (time.Time, bool) {
		v.t = v.t.Add(service)
		if i == stallAt {
			v.t = v.t.Add(stall)
		}
		return v.t, true
	}
	start := v.t
	n := pace(c, start, due, start.Add(time.Hour), issue, func(i int, p paced) { out[i] = p })
	return out, n
}

// TestPacerChargesSystemStall: a 50 ms stall in one command must show up
// in every arrival that fell due while the system was stalled, since the
// generator was busy, not asleep, when they were due.
func TestPacerChargesSystemStall(t *testing.T) {
	v := &virtualClock{t: time.Unix(0, 0)}
	out, n := paceVirtual(v, everyMs(200), 10*time.Microsecond, 49, 50*time.Millisecond)
	if n != 200 {
		t.Fatalf("issued %d of 200 arrivals", n)
	}
	slow := 0
	var worst time.Duration
	for i, p := range out {
		if p.lat > time.Millisecond {
			slow++
		}
		if p.lat > worst {
			worst = p.lat
		}
		if i > 49 && i < 99 && p.slept {
			t.Fatalf("arrival %d fell due during the stall but was timed from a wake-up", i)
		}
	}
	if worst < 50*time.Millisecond {
		t.Errorf("worst latency %v, want the 50ms stall charged", worst)
	}
	// Arrivals 50..98 fell due during the stall: each waited for it.
	if slow < 49 {
		t.Errorf("%d arrivals over 1ms, want the 49 held up by the stall", slow)
	}
}

// TestPacerIgnoresGeneratorOversleep: a sleep call that overshoots by 5 ms
// every time must not show up in latency — only in the reported lateness.
func TestPacerIgnoresGeneratorOversleep(t *testing.T) {
	v := &virtualClock{t: time.Unix(0, 0), oversleep: 5 * time.Millisecond}
	service := 10 * time.Microsecond
	out, n := paceVirtual(v, everyMs(200), service, -1, 0)
	if n != 200 {
		t.Fatalf("issued %d of 200 arrivals", n)
	}
	var worst, late time.Duration
	for _, p := range out {
		if p.lat > worst {
			worst = p.lat
		}
		if p.over > late {
			late = p.over
		}
	}
	// One wake-up covers up to six due arrivals, issued back to back.
	if worst > 7*service {
		t.Errorf("worst latency %v: the generator's oversleep was charged to the system", worst)
	}
	if late < 5*time.Millisecond {
		t.Errorf("reported lateness %v, want the 5ms oversleep", late)
	}
}

// TestPacerStopsAtDeadline: arrivals still queued at the deadline are left
// unissued and counted by the caller.
func TestPacerStopsAtDeadline(t *testing.T) {
	v := &virtualClock{t: time.Unix(0, 0)}
	c := v.clock()
	start := v.t
	issue := func(int) (time.Time, bool) {
		v.t = v.t.Add(10 * time.Millisecond) // slower than the 1 ms arrivals
		return v.t, true
	}
	n := pace(c, start, everyMs(100), start.Add(50*time.Millisecond), issue, func(int, paced) {})
	if n >= 100 || n < 4 {
		t.Errorf("issued %d arrivals by a 50ms deadline at 10ms each", n)
	}
}
