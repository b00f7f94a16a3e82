// Command sesql is an interactive SESQL shell over the sample SmartGround
// databank: the fastest way to experience contextually-enriched querying.
//
// Usage:
//
//	sesql                      # REPL on the paper's Fig. 3 sample data
//	sesql -scale 500           # synthetic databank with 500 landfills
//	sesql -e "SELECT ..."      # run one query and exit
//	sesql -user bob            # start as a different (new) user
//
// REPL meta-commands:
//
//	\tables          list relations
//	\user NAME       switch/create user
//	\kb              show the current user's knowledge base
//	\tag S P O       insert an annotation (independent scenario)
//	\import USER     import all of USER's statements
//	\stats           toggle per-stage timing output
//	\quit            exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

func main() {
	var (
		scale = flag.Int("scale", 0, "synthetic databank size (0 = paper sample data)")
		eval  = flag.String("e", "", "evaluate one SESQL query and exit")
		user  = flag.String("user", "alice", "initial user name")
	)
	flag.Parse()

	enr, err := buildPlatform(*scale, *user)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *eval != "" {
		if err := runQuery(enr, *user, *eval, false); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("CroSSE SESQL shell — type \\help for meta-commands")
	repl(enr, *user)
}

func buildPlatform(scale int, user string) (*core.Enricher, error) {
	db := engine.Open()
	p := kb.NewPlatform()
	if err := p.RegisterUser(user); err != nil {
		return nil, err
	}
	if err := dataset.RegisterDangerQuery(p); err != nil {
		return nil, err
	}

	if scale > 0 {
		cfg := dataset.DefaultConfig()
		cfg.Landfills = scale
		if err := dataset.Populate(db, cfg); err != nil {
			return nil, err
		}
		if _, err := dataset.PopulateOntology(p, user, dataset.DefaultOntology()); err != nil {
			return nil, err
		}
	} else {
		if _, err := db.ExecScript(`
			CREATE TABLE landfill (name TEXT PRIMARY KEY, city TEXT);
			CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT);
			INSERT INTO landfill VALUES ('a', 'Torino'), ('b', 'Milano'), ('c', 'Lyon');
			INSERT INTO elem_contained VALUES
				('Mercury', 'a'), ('Lead', 'a'), ('Zinc', 'a'),
				('Gold', 'b'), ('Mercury', 'b'), ('Lead', 'c');
		`); err != nil {
			return nil, err
		}
		smg := func(l string) rdf.Term { return rdf.NewIRI(core.DefaultIRIPrefix + l) }
		for _, t := range []rdf.Triple{
			{S: smg("Mercury"), P: smg("dangerLevel"), O: rdf.NewLiteral("high")},
			{S: smg("Lead"), P: smg("dangerLevel"), O: rdf.NewLiteral("high")},
			{S: smg("Zinc"), P: smg("dangerLevel"), O: rdf.NewLiteral("low")},
			{S: smg("Mercury"), P: smg("isA"), O: smg("HazardousWaste")},
			{S: smg("Lead"), P: smg("isA"), O: smg("HazardousWaste")},
			{S: smg("Torino"), P: smg("inCountry"), O: smg("Italy")},
			{S: smg("Milano"), P: smg("inCountry"), O: smg("Italy")},
			{S: smg("Lyon"), P: smg("inCountry"), O: smg("France")},
		} {
			if _, err := p.Insert(user, t); err != nil {
				return nil, err
			}
		}
	}
	enr := core.New(db, p, nil)
	p.SetConceptChecker(core.NewConceptChecker(db, enr.Mapping))
	return enr, nil
}

func runQuery(enr *core.Enricher, user, q string, withStats bool) error {
	res, stats, err := enr.QueryStats(user, q)
	if err != nil {
		return err
	}
	fmt.Print(engine.FormatTable(res))
	if withStats {
		fmt.Printf("parse %v | base SQL %v | SPARQL %v | join %v | final SQL %v | total %v\n",
			stats.Parse, stats.BaseSQL, stats.SPARQL, stats.Join, stats.FinalSQL, stats.Total())
		for _, sq := range stats.SPARQLQueries {
			fmt.Println("  sparql:", sq)
		}
		if stats.ContextHits > 0 {
			fmt.Printf("  memo  : %d context extract(s) reused\n", stats.ContextHits)
		}
		if stats.FinalSQLText != "" {
			fmt.Println("  final :", stats.FinalSQLText)
		}
	}
	return nil
}

func repl(enr *core.Enricher, user string) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	showStats := false
	var pending strings.Builder

	prompt := func() {
		if pending.Len() == 0 {
			fmt.Printf("%s> ", user)
		} else {
			fmt.Print("... ")
		}
	}

	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)

		if pending.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if quit := metaCommand(enr, &user, &showStats, trimmed); quit {
				return
			}
			prompt()
			continue
		}

		pending.WriteString(line)
		pending.WriteByte('\n')
		// A query is submitted by a ';' terminator or an ENRICH clause
		// followed by a blank line.
		full := strings.TrimSpace(pending.String())
		submit := strings.HasSuffix(trimmed, ";") || (trimmed == "" && full != "")
		if submit && full != "" {
			q := strings.TrimSuffix(full, ";")
			if err := runQuery(enr, user, q, showStats); err != nil {
				fmt.Println("error:", err)
			}
			pending.Reset()
		}
		prompt()
	}
}

func metaCommand(enr *core.Enricher, user *string, showStats *bool, cmd string) (quit bool) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Println(`\tables  \user NAME  \kb  \tag S P O  \import USER  \stats
\dot FILE  \savekb FILE  \loadkb FILE  \dump FILE  \quit`)
	case "\\tables":
		for _, n := range enr.DB.Catalog().Names() {
			rel, err := enr.DB.Catalog().Resolve(n)
			if err == nil {
				fmt.Printf("%s(%s)\n", n, strings.Join(rel.Schema().Names(), ", "))
			}
		}
	case "\\user":
		if len(fields) != 2 {
			fmt.Println("usage: \\user NAME")
			break
		}
		name := fields[1]
		if err := enr.Platform.RegisterUser(name); err != nil && !strings.Contains(err.Error(), "already") {
			fmt.Println("error:", err)
			break
		}
		*user = name
		fmt.Println("now querying as", name)
	case "\\kb":
		view, err := enr.Platform.View(*user)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		n := 0
		rdf.ForEach(view, rdf.Pattern{}, func(t rdf.Triple) bool {
			fmt.Println(" ", t)
			n++
			return n < 50
		})
		fmt.Printf("(%d shown)\n", n)
	case "\\tag":
		if len(fields) != 4 {
			fmt.Println("usage: \\tag SUBJECT PROPERTY OBJECT")
			break
		}
		m := enr.Mapping
		t := rdf.Triple{S: m.PropertyIRI(fields[1]), P: m.PropertyIRI(fields[2]), O: m.PropertyIRI(fields[3])}
		id, err := enr.Platform.Insert(*user, t)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("inserted", id)
	case "\\import":
		if len(fields) != 2 {
			fmt.Println("usage: \\import USER")
			break
		}
		n, err := enr.Platform.ImportFrom(*user, fields[1], nil)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("imported %d statement(s)\n", n)
	case "\\stats":
		*showStats = !*showStats
		fmt.Println("stats:", *showStats)
	case "\\dot":
		if len(fields) != 2 {
			fmt.Println("usage: \\dot FILE — write the current user's KB as Graphviz DOT")
			break
		}
		view, err := enr.Platform.View(*user)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if err := writeFile(fields[1], func(w *os.File) error {
			return kb.WriteDOT(w, view, *user+"-kb")
		}); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("wrote", fields[1])
	case "\\savekb":
		if len(fields) != 2 {
			fmt.Println("usage: \\savekb FILE — persist the semantic platform (binary snapshot)")
			break
		}
		if err := writeFile(fields[1], enr.Platform.Snapshot); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("wrote", fields[1])
	case "\\loadkb":
		if len(fields) != 2 {
			fmt.Println("usage: \\loadkb FILE — replace the semantic platform from a \\savekb file")
			break
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		p, err := kb.Restore(f)
		f.Close()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		enr.Platform = p
		fmt.Printf("loaded %d user(s); switch with \\user\n", len(p.Users()))
	case "\\dump":
		if len(fields) != 2 {
			fmt.Println("usage: \\dump FILE — write the databank as a SQL script")
			break
		}
		if err := writeFile(fields[1], enr.DB.Dump); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("wrote", fields[1])
	default:
		fmt.Println("unknown meta-command; \\help lists them")
	}
	return false
}

// writeFile opens path for writing and runs fn over it.
func writeFile[F func(*os.File) error | func(io.Writer) error](path string, fn F) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch g := any(fn).(type) {
	case func(*os.File) error:
		return g(f)
	case func(io.Writer) error:
		return g(f)
	default:
		return fmt.Errorf("unsupported writer function")
	}
}
