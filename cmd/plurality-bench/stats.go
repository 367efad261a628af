package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// median returns the middle value of xs, or the mean of the two middle
// values for an even count; xs is not modified.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minOf and maxOf return the smallest and largest of xs, NaN for none.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Max(xs)
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the method the
// benchmark's spread rule is stated in. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// relIQR is the distance between the quartiles of xs as a share of its
// median: the run-to-run spread the regression bounds are compared with.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, and a label naming it ("p99" for 1000 samples). No percentile
// at or above the median qualifies below 20 samples; the maximum is
// returned then, labelled "max".
func tail(xs []float64) (float64, string) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), "none"
	}
	if n < 20 {
		return s[n-1], "max"
	}
	return s[n-11], fmt.Sprintf("p%.4g", 100*float64(n-10)/float64(n))
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// heapPeak polls the heap (HeapAlloc) every 25 ms in a background
// goroutine and keeps the maximum, approximating peak heap without
// touching the measured code; runtime.ReadMemStats stops the world for
// microseconds, well under 1% of the window at this cadence.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func sampleHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) observe() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mu.Lock()
	h.peak = max(h.peak, ms.HeapAlloc)
	h.mu.Unlock()
}

// take returns the peak in MB since the last take and starts a new one.
func (h *heapPeak) take() float64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := h.peak
	h.peak = 0
	return float64(peak) / (1 << 20)
}

// windows calls take every d until the returned function is called, which
// ends the last window and returns every window's peak in MB.
func (h *heapPeak) windows(d time.Duration) (stop func() []float64) {
	done, out := make(chan struct{}), make(chan []float64)
	go func() {
		tick := time.NewTicker(d)
		defer tick.Stop()
		var peaks []float64
		for {
			select {
			case <-done:
				out <- append(peaks, h.take())
				return
			case <-tick.C:
				peaks = append(peaks, h.take())
			}
		}
	}()
	return func() []float64 { close(done); return <-out }
}

// finish stops the sampler, waits for it and returns the peak in MB since
// the last take.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return h.take()
}
