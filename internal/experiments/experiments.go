// Package experiments implements the measurement study.
// The paper publishes no quantitative evaluation, so these experiments (a)
// reproduce every functional artifact — each figure and worked example — and
// (b) measure the system the way a database-systems evaluation would:
// enrichment overhead against hand-written baselines, scaling in relation
// and knowledge-base size, pipeline stage breakdown, federation cost, and
// crowdsourcing fan-out. Each experiment prints its results as a table.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Experiment is one reproducible measurement.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment, writing its table to w. quick shrinks
	// the parameter sweep so the whole suite stays test-friendly.
	Run func(w io.Writer, quick bool) error
}

// All returns the experiments in ID order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Functional reproduction of paper examples 4.1-4.6", Run: RunE1},
		{ID: "E4", Title: "Pipeline stage breakdown (Fig. 6)", Run: RunE4},
		{ID: "E5", Title: "Enrichment overhead vs hand-written SQL baseline", Run: RunE5},
		{ID: "E6", Title: "Scaling with knowledge-base size", Run: RunE6},
		{ID: "E7", Title: "FDW federation: local vs remote, pushdown", Run: RunE7},
		{ID: "E8", Title: "Crowdsourced belief import fan-out", Run: RunE8},
		{ID: "E11", Title: "Peer discovery and recommendation scaling", Run: RunE11},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// medianOf runs fn k times and reports the median duration.
func medianOf(k int, fn func() error) (time.Duration, error) {
	if k < 1 {
		k = 1
	}
	times := make([]time.Duration, 0, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// table is a tiny aligned-column writer for experiment output.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table { return &table{headers: headers} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = formatDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i, wd := range widths {
		sep[i] = repeat('-', wd)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", id, title)
}
