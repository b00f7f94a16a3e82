// Command snapcheck proves cold-start recovery end to end: it builds a
// populated CroSSE platform (synthetic databank + multi-user semantic
// platform), runs a battery of SESQL/SPARQL/pattern-count probes, and
// either saves the platform image plus the probe results (-mode save) or
// restores the image in a *fresh process* and diffs the same probes against
// the recorded results (-mode verify). CI runs save and verify as separate
// processes on every PR, so a snapshot-codec regression that loses state
// cannot land silently.
//
// Usage:
//
//	snapcheck -mode save   -image platform.img -results expected.json
//	snapcheck -mode verify -image platform.img -results expected.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// probeResults is everything verify compares: query outputs and the
// structural counts that pin view/arena state.
type probeResults struct {
	Users      []string            `json:"users"`
	ArenaLen   int                 `json:"arena_len"`
	DictLen    int                 `json:"dict_len"`
	ViewSizes  map[string]int      `json:"view_sizes"`
	SESQL      map[string][]string `json:"sesql"`  // query → sorted result rows
	SPARQL     map[string][]string `json:"sparql"` // user → sorted bindings of the probe query
	Counts     map[string][]int    `json:"counts"` // user → pattern-count battery
	Statements []string            `json:"statements"`
}

var sesqlProbes = map[string]string{
	"schema_extension":      "SELECT elem_name, landfill_name\nFROM elem_contained\nENRICH\nSCHEMAEXTENSION( elem_name, dangerLevel)",
	"bool_schema_extension": "SELECT elem_name\nFROM elem_contained\nENRICH\nBOOLSCHEMAEXTENSION( elem_name, isA, HazardousWaste)",
	"plain_sql":             "SELECT name, city FROM landfill WHERE name < 'landfill_0040'",
}

const sparqlProbe = `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`

// build synthesises the deterministic scenario both modes share.
func build() (*core.Enricher, error) {
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = 80
	if err := dataset.Populate(db, cfg); err != nil {
		return nil, err
	}
	p := kb.NewPlatform()
	for _, u := range []string{"alice", "bob"} {
		if err := p.RegisterUser(u); err != nil {
			return nil, err
		}
	}
	ocfg := dataset.DefaultOntology()
	ocfg.ExtraTriples = 2000
	if _, err := dataset.PopulateOntology(p, "alice", ocfg); err != nil {
		return nil, err
	}
	if err := dataset.RegisterDangerQuery(p); err != nil {
		return nil, err
	}
	// bob believes part of alice's corpus and owns statements of his own,
	// so the image carries shared triples, refcounts and two distinct views.
	i := 0
	if _, err := p.ImportFrom("bob", "alice", func(*kb.Statement) bool {
		i++
		return i%3 == 0
	}); err != nil {
		return nil, err
	}
	if _, err := p.Insert("bob", rdf.Triple{
		S: dataset.IRI("element_001"), P: dataset.IRI("reviewedBy"), O: rdf.NewLiteral("bob"),
	}, kb.WithReference(kb.Reference{Title: "field notes", Author: "bob"})); err != nil {
		return nil, err
	}
	if err := p.DeclareProperty("bob", dataset.IRI("reviewedBy").Value); err != nil {
		return nil, err
	}
	return core.New(db, p, nil), nil
}

// probe runs the full battery against an enricher.
func probe(e *core.Enricher) (*probeResults, error) {
	p := e.Platform
	res := &probeResults{
		Users:     p.Users(),
		ArenaLen:  p.Shared().Len(),
		DictLen:   p.Shared().DictLen(),
		ViewSizes: map[string]int{},
		SESQL:     map[string][]string{},
		SPARQL:    map[string][]string{},
		Counts:    map[string][]int{},
	}
	for _, st := range p.Explore(nil) {
		res.Statements = append(res.Statements,
			fmt.Sprintf("%s|%s|%s|%v", st.ID, st.Owner, st.Triple, st.Believers()))
	}
	for name, q := range sesqlProbes {
		r, err := e.Query("alice", q)
		if err != nil {
			return nil, fmt.Errorf("SESQL probe %s: %w", name, err)
		}
		var rows []string
		for _, row := range r.Rows {
			line := ""
			for i, v := range row {
				if i > 0 {
					line += "|"
				}
				line += v.String()
			}
			rows = append(rows, line)
		}
		sort.Strings(rows)
		res.SESQL[name] = rows
	}
	for _, u := range p.Users() {
		res.ViewSizes[u] = p.ViewSize(u)
		view, err := p.View(u)
		if err != nil {
			return nil, err
		}
		r, err := sparql.Eval(view, sparqlProbe)
		if err != nil {
			return nil, fmt.Errorf("SPARQL probe for %s: %w", u, err)
		}
		var rows []string
		for _, b := range r.Bindings {
			rows = append(rows, fmt.Sprintf("%s|%s|%s", b["s"], b["p"], b["o"]))
		}
		res.SPARQL[u] = rows
		// Pattern-count battery over the vocabulary the ontology uses.
		for _, pat := range []rdf.Pattern{
			{},
			{P: dataset.IRI("dangerLevel")},
			{P: dataset.IRI("isA")},
			{P: dataset.IRI("isA"), O: dataset.IRI("HazardousWaste")},
			{S: dataset.IRI("element_001")},
			{O: rdf.NewLiteral("high")},
		} {
			res.Counts[u] = append(res.Counts[u], rdf.Count(view, pat))
		}
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snapcheck:", err)
	os.Exit(1)
}

func main() {
	mode := flag.String("mode", "", "save | verify")
	image := flag.String("image", "platform.img", "platform image file")
	results := flag.String("results", "expected.json", "probe results file")
	flag.Parse()

	switch *mode {
	case "save":
		e, err := build()
		if err != nil {
			fatal(err)
		}
		want, err := probe(e)
		if err != nil {
			fatal(err)
		}
		size, err := core.SaveImageFile(*image, e.DB, e.Platform)
		if err != nil {
			fatal(err)
		}
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*results, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("snapcheck: saved %s (%d bytes) and %s (%d probes over %d statements)\n",
			*image, size, *results, len(want.SESQL)+len(want.SPARQL), len(want.Statements))

	case "verify":
		raw, err := os.ReadFile(*results)
		if err != nil {
			fatal(err)
		}
		var want probeResults
		if err := json.Unmarshal(raw, &want); err != nil {
			fatal(err)
		}
		db, p, err := core.LoadImageFile(*image)
		if err != nil {
			fatal(err)
		}
		got, err := probe(core.New(db, p, nil))
		if err != nil {
			fatal(err)
		}
		if !reflect.DeepEqual(&want, got) {
			gotJSON, _ := json.MarshalIndent(got, "", "  ")
			fmt.Fprintf(os.Stderr, "snapcheck: restored platform diverges from original\n--- expected\n%s\n--- restored\n%s\n", raw, gotJSON)
			os.Exit(1)
		}
		fmt.Printf("snapcheck: restore verified (%d users, %d triples, %d statements, all probes equal)\n",
			len(got.Users), got.ArenaLen, len(got.Statements))

	default:
		fatal(fmt.Errorf("unknown -mode %q (want save or verify)", *mode))
	}
}
