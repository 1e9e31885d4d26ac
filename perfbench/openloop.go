package main

import (
	"math"
	"sync"
	"time"
)

// stepStats is one open-loop step: arrivals on a fixed schedule at an
// offered rate, each timed from the moment it was due, not from when a
// connection got round to sending it. A stall therefore shows in the
// latency of every request queued behind it (no coordinated omission).
type stepStats struct {
	offered float64 // requests per second
	dur     time.Duration
	sent    int
	ok      int
	lat     []float64     // ms from due time to completion; a failure counts as the whole step
	late    []float64     // ms the dispatcher handed each arrival over after its due time
	span    time.Duration // first due time to last completion
	backlog int           // arrivals still waiting for a connection when the schedule ended
}

// achieved is the rate of successful requests over the step: from the
// first due time to the last completion, plus the one arrival interval
// the last request owns.
func (s *stepStats) achieved() float64 {
	return float64(s.ok) / (s.span.Seconds() + 1/s.offered)
}

// runStep offers rate requests per second for dur over at most conns
// concurrent connections. do(k) performs arrival first+k and reports
// whether it failed. Arrivals are due at start + k/rate whatever
// happened before; an arrival that finds every connection busy waits,
// and that wait is part of its latency.
func runStep(conns int, rate float64, dur time.Duration, first int, do func(k int) error) *stepStats {
	n := int(rate * dur.Seconds())
	st := &stepStats{offered: rate, dur: dur, sent: n, lat: make([]float64, n), late: make([]float64, n)}
	type arrival struct {
		k   int
		due time.Time
	}
	queue := make(chan arrival, n)
	var (
		mu      sync.Mutex
		lastEnd time.Time
		wg      sync.WaitGroup
	)
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				err := do(first + a.k)
				end := time.Now()
				lat := float64(end.Sub(a.due)) / 1e6
				if err != nil {
					lat = math.Max(lat, float64(dur)/1e6)
				}
				mu.Lock()
				st.lat[a.k] = lat
				if err == nil {
					st.ok++
				}
				if end.After(lastEnd) {
					lastEnd = end
				}
				mu.Unlock()
			}
		}()
	}
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.late[k] = float64(time.Since(due)) / 1e6
		queue <- arrival{k, due}
	}
	st.backlog = len(queue)
	close(queue)
	wg.Wait()
	st.span = lastEnd.Sub(start)
	return st
}

// meets reports whether the step satisfies the service objective: p99
// within limitMS, no failures, at least 95% of the offered rate
// achieved, and no backlog when the schedule ended beyond one waiting
// arrival per connection or 1% of the step, whichever is more.
func (s *stepStats) meets(limitMS float64, conns int) bool {
	return s.sent > 0 && s.ok == s.sent &&
		quantile(s.lat, 0.99) <= limitMS &&
		s.achieved() >= 0.95*s.offered &&
		s.backlog <= max(conns, s.sent/100)
}
