package main

import (
	"sync"
	"time"
)

// dispatcher hands out operation indices to closed-loop clients. The
// index sequence is cut into blocks (each block holds every input
// variant once), and a run only stops at a block boundary, once the
// measuring time has passed and at least minOps operations were
// started, so every run measures the same mix. A hard limit of three
// times the measuring time bounds a run on a much slower host.
type dispatcher struct {
	mu       sync.Mutex
	next     int
	stopped  bool
	block    int
	minOps   int
	deadline time.Time
	hard     time.Time
}

func newDispatcher(block, minOps int, d time.Duration) *dispatcher {
	now := time.Now()
	return &dispatcher{block: block, minOps: minOps, deadline: now.Add(d), hard: now.Add(3 * d)}
}

// take returns the next operation index, or false when the run is over.
func (d *dispatcher) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return 0, false
	}
	now := time.Now()
	if (d.next%d.block == 0 && d.next >= d.minOps && now.After(d.deadline)) || now.After(d.hard) {
		d.stopped = true
		return 0, false
	}
	i := d.next
	d.next++
	return i, true
}

// closedLoop runs op on `clients` goroutines, each starting its next
// operation only when its previous one has finished, and returns every
// operation's result in index order and the wall time of the loop.
func closedLoop[T any](clients, block, minOps int, d time.Duration, op func(i int) T) ([]T, time.Duration) {
	disp := newDispatcher(block, minOps, d)
	var mu sync.Mutex
	results := make(map[int]T)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := disp.take()
				if !ok {
					return
				}
				r := op(i)
				mu.Lock()
				results[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	out := make([]T, len(results))
	for i, r := range results {
		out[i] = r
	}
	return out, wall
}
