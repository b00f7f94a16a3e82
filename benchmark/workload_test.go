package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// wire renders what the server would be sent, in order.
func wire(ops [numClients]clientOps) string {
	var b strings.Builder
	for _, c := range ops {
		for _, list := range [][]op{c.warm, c.seq} {
			for i := range list {
				o := &list[i]
				b.WriteString(o.user)
				b.WriteByte(byte('0' + o.kind))
				b.WriteString(o.body)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

func TestSameSeedSameRequests(t *testing.T) {
	db, err := buildDatabank(2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		gen := func(seed int64) string {
			ops, err := w.gen(rand.New(rand.NewSource(seed)), db)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for c := range ops {
				if len(ops[c].seq)%len(w.shapes) != 0 && w.name != "belief_churn" {
					t.Errorf("%s: client %d has %d requests, not whole rounds of %d shapes", w.name, c, len(ops[c].seq), len(w.shapes))
				}
			}
			return wire(ops)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different request sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same request sequence", w.name)
		}
	}
}

// Both uncached workloads rely on no text being sent twice within a pool
// cycle, by either client.
func TestUncachedPoolsHoldDistinctTexts(t *testing.T) {
	for _, name := range []string{"enrich_uncached", "federated_scan"} {
		w, _ := findWorkload(name)
		ops, err := w.gen(rand.New(rand.NewSource(1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for c := range ops {
			if len(ops[c].seq) <= cacheEntries {
				t.Errorf("%s: a pool of %d does not exceed the %d-entry caches", name, len(ops[c].seq), cacheEntries)
			}
			for _, o := range ops[c].seq {
				if seen[o.text] {
					t.Fatalf("%s: text sent twice: %s", name, o.text)
				}
				seen[o.text] = true
			}
		}
	}
}

// BENCHMARK.json is written by hand; the tables in spec.go and workload.go
// are what the program reports. They must name the same things.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract names 6", len(keys))
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds != runSeconds {
		t.Errorf("paths = %v, run_seconds = %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q / %q, defined %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, listed []metric, specs []metricSpec, bounded bool) {
		if len(listed) != len(specs) {
			t.Errorf("%s: %d metrics listed, %d defined", kind, len(listed), len(specs))
			return
		}
		for i, m := range specs {
			l := listed[i]
			if l.Name != m.name || l.Unit != m.unit || l.Better != m.better {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, l, m)
			}
			if bounded != (l.Bound != nil) || (bounded && *l.Bound != m.bound) {
				t.Errorf("%s %s: bound listed %v, defined %g", kind, m.name, l.Bound, m.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
