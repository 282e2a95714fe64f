package main

import "time"

// The open-loop pacer. Each issuing goroutine walks a precomputed schedule
// of due times and has one command outstanding. Two rules keep the recorded
// latency about the system, not the generator:
//
//   - An arrival that fell due while the goroutine was busy with an earlier
//     command is timed from its due time, so a stalled system is charged for
//     every arrival it held up (coordinated-omission safe).
//   - An arrival that fell due while the goroutine was asleep is timed from
//     the wake-up, so the sleep call's own overshoot is never charged to the
//     system. That overshoot is reported separately as generator lateness.

// clock is the pacer's view of time; tests substitute a virtual one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// paced is the outcome of one arrival.
type paced struct {
	// lat runs from the timing origin (due time, or wake-up when the
	// arrival fell due during a sleep) to completion.
	lat  time.Duration
	done time.Time
	// over is how long after the due time the generator woke, when the
	// arrival fell due while it slept; zero otherwise.
	over  time.Duration
	slept bool
	ok    bool
}

// pace issues the arrivals due at start+due[i] in order until all are
// issued or deadline passes, and returns how many it issued. issue runs
// arrival i and returns its completion time (taken before any output
// check) and whether its output checked out; note receives the timing of
// every issued arrival.
func pace(c clock, start time.Time, due []time.Duration, deadline time.Time,
	issue func(i int) (time.Time, bool), note func(i int, p paced)) int {
	var lastWake time.Time
	for i, d := range due {
		t := start.Add(d)
		now := c.now()
		if now.After(deadline) {
			return i
		}
		if now.Before(t) {
			for now.Before(t) {
				c.sleep(t.Sub(now))
				now = c.now()
			}
			lastWake = now
		}
		p := paced{}
		from := t
		if !lastWake.Before(t) {
			from = lastWake
			p.over = lastWake.Sub(t)
			p.slept = true
		}
		p.done, p.ok = issue(i)
		p.lat = p.done.Sub(from)
		note(i, p)
	}
	return len(due)
}
