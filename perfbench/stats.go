package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample with at least
// q of the samples at or below it. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// dueLatencies turns per-request (due, end) pairs into latencies in
// milliseconds measured from the scheduled send time, so a stall also
// charges the requests that queued behind it (no coordinated omission).
func dueLatencies(due, end []time.Time) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		out[i] = float64(end[i].Sub(due[i])) / float64(time.Millisecond)
	}
	return out
}

// stealWindow is an interval of the measured phase and the share of the
// machine's CPU time the hypervisor stole during it.
type stealWindow struct {
	From, To time.Time
	Pct      float64
}

// stealLimitPct is the steal share above which a window's requests are
// left out of the latency medians. A 250 ms window on two CPUs counts
// about 50 ticks, so this lets one stolen tick pass and no more.
const stealLimitPct = 2.5

// keptWindows returns the windows whose steal is at most stealLimitPct.
// When fewer than half of them are, it returns the half with the least
// steal instead, so a run on a starved host still measures half of its
// phase.
func keptWindows(ws []stealWindow) []stealWindow {
	var kept []stealWindow
	for _, w := range ws {
		if w.Pct <= stealLimitPct {
			kept = append(kept, w)
		}
	}
	if 2*len(kept) >= len(ws) {
		return kept
	}
	kept = append([]stealWindow(nil), ws...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Pct < kept[j].Pct })
	return kept[:(len(ws)+1)/2]
}

// keptP50 returns the median latency (ms, from the due time) of the
// requests due inside one of the kept windows, or of all requests when
// none is. The hypervisor's steal slows every request in flight while it
// lasts; leaving those requests out keeps the figure about the daemon.
func keptP50(due, end []time.Time, kept []stealWindow) float64 {
	lat := dueLatencies(due, end)
	var in []float64
	for i, t := range due {
		for _, w := range kept {
			if !t.Before(w.From) && t.Before(w.To) {
				in = append(in, lat[i])
				break
			}
		}
	}
	if len(in) == 0 {
		return median(lat)
	}
	return median(in)
}
