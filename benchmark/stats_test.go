package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5}, {25, 3}, {90, 8.2}, {100, 9}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
}

// A cheap shape with many samples must not drown a costly one: the pooled
// median of these samples is 1, the rule's figure is sqrt(1*100).
func TestGeomeanOfShapeMedians(t *testing.T) {
	cheap := make([]float64, 1000)
	for i := range cheap {
		cheap[i] = 1
	}
	got := geomeanOfMedians([][]float64{cheap, {90, 100, 110}})
	if !near(got, 10) {
		t.Errorf("geomeanOfMedians = %g, want 10", got)
	}
	if got := geomeanOfMedians([][]float64{{4}, nil, {9}}); !near(got, 6) {
		t.Errorf("an empty shape must be skipped: got %g, want 6", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	shape := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// p90 leaves 10 % beyond: 100 samples per shape is the least that gives ten.
	if _, err := tailPercentile([][]float64{shape(100), shape(400)}, 90); err != nil {
		t.Errorf("100 samples in the rarest shape: %v", err)
	}
	if _, err := tailPercentile([][]float64{shape(99), shape(400)}, 90); err == nil {
		t.Error("99 samples in the rarest shape leave 9.9 beyond p90: want an error")
	}
	if _, err := tailPercentile([][]float64{shape(999)}, 99); err == nil {
		t.Error("999 samples leave 9.99 beyond p99: want an error")
	}
	got, err := tailPercentile([][]float64{shape(1000)}, 99)
	if err != nil || !near(got, 990.01) {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990.01", got, err)
	}
}

// The driver computes spread with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{12, 10, 11, 15, 13}) // sorted: 10 11 12 13 15
	if !near(q1, 10.5) || !near(q2, 12) || !near(q3, 14) {
		t.Errorf("quartiles of five = %g %g %g, want 10.5 12 14", q1, q2, q3)
	}
	if got := spread([]float64{12, 10, 11, 15, 13}); !near(got, 3.5/12) {
		t.Errorf("spread = %g, want %g", got, 3.5/12)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) int64 { return int64(time.Duration(n) * time.Millisecond) }
	spans := []span{
		{ID: 1, Start: ms(0), End: ms(100)},              // root
		{ID: 2, Parent: 1, Start: ms(200), End: ms(230)}, // replayed after the root: 30
		{ID: 3, Parent: 1, Start: ms(220), End: ms(250)}, // overlaps span 2 by 10: adds 20
		{ID: 4, Parent: 1, Start: ms(300), End: ms(310)}, // disjoint: adds 10
		{ID: 5, Parent: 2, Start: ms(400), End: ms(425)}, // grandchild: covers 25 of span 2, none of the root
		{ID: 6, Parent: 3, Start: ms(500), End: ms(560)}, // outlasts its parent: leaves it zero
		{ID: 7, Parent: 4, Start: ms(600), End: ms(604)}, // nested pair, one inside the other
		{ID: 8, Parent: 4, Start: ms(601), End: ms(603)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 5, 3: 0, 4: 6, 5: 25, 6: 60, 7: 4, 8: 2}
	for id, w := range want {
		if self[id] != w*time.Millisecond {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w*time.Millisecond)
		}
	}
}

// Two requests of one shape: one replay shorter than its call, one longer.
// Per request the root's self times are 40 and 0; folded, 200 - 180.
func TestAggregateSubtractsSumsFromSums(t *testing.T) {
	spans := []span{
		{ID: 1, Request: 1, Layer: "rest", Name: "rest.handler a", Start: 0, End: 100},
		{ID: 2, Request: 2, Layer: "rest", Name: "rest.handler a", Start: 100, End: 200},
		{ID: 3, Request: 1, Parent: 1, Layer: "core", Name: "core.query", Start: 300, End: 360},
		{ID: 4, Request: 2, Parent: 2, Layer: "core", Name: "core.query", Start: 400, End: 520},
		{ID: 5, Request: 2, Parent: 4, Layer: "rdf", Name: "rdf.match ?s <p> ?o", Start: 600, End: 610},
		{ID: 6, Request: 2, Parent: 4, Layer: "rdf", Name: "rdf.match ?s <q> ?o", Start: 700, End: 720},
	}
	folded := aggregate(spans)
	if len(folded) != 3 {
		t.Fatalf("folded into %d spans, want 3: %+v", len(folded), folded)
	}
	self := selfTimes(folded)
	for i, want := range []time.Duration{20, 150, 30} {
		if got := self[folded[i].ID]; got != want {
			t.Errorf("%s: self time %d, want %d", folded[i].Name, got, want)
		}
	}
	if folded[1].Parent != folded[0].ID || folded[2].Parent != folded[1].ID {
		t.Errorf("parents not kept: %+v", folded)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "latency_p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "throughput_qps", better: "higher", bound: 0.10}
	for _, c := range []struct {
		m        metricSpec
		old, new point
		want     string
	}{
		{lower, point{value: 100}, point{value: 105}, "unchanged"},
		{lower, point{value: 100}, point{value: 111}, "regressed"},
		{lower, point{value: 100}, point{value: 89}, "improved"},
		{higher, point{value: 100}, point{value: 89}, "regressed"},
		{higher, point{value: 100}, point{value: 111}, "improved"},
		{lower, point{value: 100, spread: 0.12}, point{value: 150}, "unresolved"},
		{higher, point{value: 100}, point{value: 50, spread: 0.2}, "unresolved"},
	} {
		if _, got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.name, c.old, c.new, got, c.want)
		}
	}
}
