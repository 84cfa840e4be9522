package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 25},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	// op: 100 - (10..60 covered = 50) - (90..100 = 10) = 40.
	want := []time.Duration{40, 20, 30, 40, 10, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer(0)
	root := tr.begin("op", 7, 0)
	child := tr.begin("layer", 7, root)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[0].Req != 7 || s[1].Req != 7 {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Errorf("child %+v not inside parent %+v", s[1], s[0])
	}
	dur, self := byName(s)
	if len(dur["op"]) != 1 || self["op"][0] > dur["op"][0] {
		t.Errorf("byName: dur %v self %v", dur, self)
	}
}
