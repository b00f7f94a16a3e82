package kb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"crosse/internal/rdf"
)

// WriteDOT renders a knowledge graph in Graphviz DOT syntax — the backing
// for the paper's "graph-based visualization tool which supports knowledge
// insertion in a more user friendly way" (Sec. III-A). IRIs are shortened
// to their local names; literal objects render as boxed leaf nodes.
func WriteDOT(w io.Writer, g rdf.Graph, title string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", title)
	fmt.Fprintln(bw, "  rankdir=LR;")
	fmt.Fprintln(bw, "  node [shape=ellipse, fontsize=10];")

	// Deterministic output: collect and sort edges first.
	type edge struct {
		from, label, to string
		lit             bool
	}
	var edges []edge
	rdf.ForEach(g, rdf.Pattern{}, func(t rdf.Triple) bool {
		edges = append(edges, edge{
			from:  localName(t.S),
			label: localName(t.P),
			to:    localName(t.O),
			lit:   t.O.IsLiteral(),
		})
		return true
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		if edges[i].label != edges[j].label {
			return edges[i].label < edges[j].label
		}
		return edges[i].to < edges[j].to
	})

	litID := 0
	for _, e := range edges {
		if e.lit {
			// Literals get unique box nodes so shared lexical forms don't
			// merge into one node.
			litID++
			node := fmt.Sprintf("lit%d", litID)
			fmt.Fprintf(bw, "  %s [label=%q, shape=box];\n", node, e.to)
			fmt.Fprintf(bw, "  %q -> %s [label=%q];\n", e.from, node, e.label)
		} else {
			fmt.Fprintf(bw, "  %q -> %q [label=%q];\n", e.from, e.to, e.label)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// localName shortens an IRI to the fragment/last path segment; literals
// return their lexical form.
func localName(t rdf.Term) string {
	if t.IsBlank() {
		return "_:" + t.Value
	}
	v := t.Value
	if t.IsIRI() {
		if i := strings.LastIndexAny(v, "#/"); i >= 0 && i+1 < len(v) {
			return v[i+1:]
		}
	}
	return v
}
