package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for one second, untraced and traced, on a
// databank a fifth of the real size: the same requests, most of them
// answered with fewer rows. Every answer must match the oracle and every
// named metric must be reported with its unit.
func TestSmoke(t *testing.T) {
	scratchRoot = t.TempDir()
	for _, w := range workloads {
		w.spec.landfills = 400
		if w.spec.chainEdges > 0 {
			w.spec.chainEdges = 3000
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := measureWorkload(&w, 1, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s: %+v, reported %t", m.name, v, ok)
				}
			}
			for _, shape := range w.shapes {
				if res.Shapes[shape].Samples == 0 {
					t.Errorf("shape %s has no sample", shape)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err = traceWorkload(&w, 1, 1, spans)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("traced: attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			for _, m := range perLayer {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("per-layer metric %s: %+v, reported %t", m.name, v, ok)
				}
			}
			if v := res.Metrics["rest_handler_us"].Value; !(v > 0) {
				t.Errorf("rest_handler_us = %g", v)
			}
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var got []span
			if err := json.Unmarshal(b, &got); err != nil || len(got) == 0 {
				t.Errorf("%d spans written, %v", len(got), err)
			}
		})
	}
}
