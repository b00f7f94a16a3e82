// Crowdshare demonstrates the paper's crowdsourced-annotation vision
// (Sec. I-B, III-A): two users with different professional contexts get
// different answers from the same SESQL query; then one explores the
// other's public statements, imports part of them, and her answers change.
// Finally the whole platform state round-trips through the binary platform
// snapshot.
package main

import (
	"bytes"
	"fmt"
	"log"

	"crosse/internal/core"
	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

func smg(local string) rdf.Term { return rdf.NewIRI(core.DefaultIRIPrefix + local) }

func main() {
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT);
		INSERT INTO elem_contained VALUES
			('Mercury', 'a'), ('Asbestos', 'a'), ('Zinc', 'a'), ('Gold', 'a');
	`); err != nil {
		log.Fatal(err)
	}

	platform := kb.NewPlatform()
	for _, u := range []string{"researcher", "city_planner"} {
		if err := platform.RegisterUser(u); err != nil {
			log.Fatal(err)
		}
	}

	// The researcher interprets "pollution" in a scientific context:
	// heavy metals are the hazard.
	if _, err := platform.Insert("researcher",
		rdf.Triple{S: smg("Mercury"), P: smg("isA"), O: smg("Pollutant")},
		kb.WithReference(kb.Reference{Title: "Heavy metals in mining waste", Author: "R. et al."})); err != nil {
		log.Fatal(err)
	}
	// The city planner interprets it in an urban-planning context:
	// asbestos is the concern.
	if _, err := platform.Insert("city_planner",
		rdf.Triple{S: smg("Asbestos"), P: smg("isA"), O: smg("Pollutant")}); err != nil {
		log.Fatal(err)
	}

	enricher := core.New(db, platform, nil)
	const query = `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, Pollutant)`

	show := func(user string) {
		res, err := enricher.Query(user, query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s's view of \"pollutants in landfill a\" ---\n", user)
		fmt.Print(engine.FormatTable(res))
		fmt.Println()
	}

	fmt.Println("Same query, two personal contexts (Sec. I-B motivating scenario):")
	fmt.Println()
	show("researcher")
	show("city_planner")

	// Crowdsourcing: the planner explores the researcher's public
	// statements and accepts them as her own.
	fmt.Println("The city planner explores the researcher's public annotations:")
	for _, st := range platform.Explore(func(st *kb.Statement) bool { return st.Owner == "researcher" }) {
		ref := ""
		if st.Ref != nil {
			ref = fmt.Sprintf("  [ref: %s, %s]", st.Ref.Title, st.Ref.Author)
		}
		fmt.Printf("  %s: %s%s\n", st.ID, st.Triple, ref)
	}
	n, err := platform.ImportFrom("city_planner", "researcher", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n...and imports %d statement(s) into her own knowledge base.\n\n", n)
	show("city_planner")

	// Persistence: the whole platform state (users, statements, beliefs,
	// references) round-trips through the binary platform snapshot.
	var buf bytes.Buffer
	if err := platform.Snapshot(&buf); err != nil {
		log.Fatal(err)
	}
	restored, err := kb.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Platform state: %d-byte snapshot; restored %d users, planner KB %d triples.\n",
		buf.Len(), len(restored.Users()), restored.ViewSize("city_planner"))
}
