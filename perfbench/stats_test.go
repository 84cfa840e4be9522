package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		q    float64
		want float64
	}{{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}, {1, 5}}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
}

// A stall charges every request that was due during it, not only the one
// that hit it: latency runs from the due time, not the send time.
func TestDueLatenciesChargeQueueing(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	// Requests due every 10 ms; the first takes 100 ms and the next three
	// wait behind it, then complete 1 ms after being sent.
	due := []time.Time{ms(0), ms(10), ms(20), ms(30)}
	end := []time.Time{ms(100), ms(101), ms(102), ms(103)}
	got := dueLatencies(due, end)
	want := []float64{100, 91, 82, 73}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dueLatencies = %v, want %v", got, want)
		}
	}
	if p50 := median(got); p50 != 82 {
		t.Errorf("median = %v, want 82", p50)
	}
}

func TestKeptWindowsDropsStarvedWindows(t *testing.T) {
	win := func(pcts ...float64) []stealWindow {
		ws := make([]stealWindow, len(pcts))
		for i, p := range pcts {
			from := time.Unix(int64(i), 0)
			ws[i] = stealWindow{From: from, To: from.Add(time.Second), Pct: p}
		}
		return ws
	}
	pcts := func(ws []stealWindow) []float64 {
		var out []float64
		for _, w := range ws {
			out = append(out, w.Pct)
		}
		return out
	}
	cases := []struct {
		in, want []float64
	}{
		{[]float64{0, 2, 40, 4, 0}, []float64{0, 2, 0}},
		{[]float64{0, 0, 0, 0}, []float64{0, 0, 0, 0}},
		// Fewer than half under the limit: the least-starved half.
		{[]float64{30, 6, 50, 2, 8, 4}, []float64{2, 4, 6}},
		{nil, nil},
	}
	for _, c := range cases {
		got := pcts(keptWindows(win(c.in...)))
		if len(got) != len(c.want) {
			t.Errorf("keptWindows(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("keptWindows(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestKeptP50LeavesOutStarvedWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	var due, end []time.Time
	for i := 0; i < 100; i++ {
		d := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		lat := time.Millisecond
		if i < 60 { // the first 600 ms run 50x slower
			lat = 50 * time.Millisecond
		}
		due, end = append(due, d), append(end, d.Add(lat))
	}
	kept := []stealWindow{{From: t0.Add(600 * time.Millisecond), To: t0.Add(time.Second)}}
	if got := keptP50(due, end, kept); got != 1 {
		t.Errorf("keptP50 = %v, want 1", got)
	}
	// Every window kept: the plain median, which the slow majority sets.
	all := []stealWindow{{From: t0, To: t0.Add(time.Second)}}
	if got := keptP50(due, end, all); got != 50 {
		t.Errorf("keptP50 over everything = %v, want 50", got)
	}
	if got := keptP50(nil, nil, kept); got != 0 {
		t.Errorf("keptP50(empty) = %v, want 0", got)
	}
}
