package main

import "testing"

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		// Overlapping children cover [10, 50) once, not twice.
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},
		// A child running past its parent only counts inside it.
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 4, Start: 95, End: 100},
	}
	computeSelf(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 30, 3: 20, 4: 30 - 5, 5: 5}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", "trace", 0)
	sp.SetTrace("other")
	sp.End(1, nil)
	if sp.ID() != 0 {
		t.Fatal("a nil tracer must hand out inert spans")
	}
	tr.bindTrace("k", "v")
}
