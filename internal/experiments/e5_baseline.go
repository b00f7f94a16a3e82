package experiments

import (
	"io"

	"crosse/internal/engine"
	"crosse/internal/rdf"
	"crosse/internal/sqlval"
)

// RunE5 compares SESQL enrichment against the hand-written alternative the
// paper's architecture implicitly competes with: manually exporting the
// user's contextual knowledge into a relational table and writing the join
// by hand. Expected shape: hand-written wins on raw latency (it skips
// SPARQL + temp tables) by a modest constant factor, while SESQL's cost
// stays within the same order of magnitude and buys per-user context
// without any manual ETL — the paper's trade-off.
func RunE5(w io.Writer, quick bool) error {
	header(w, "E5", "Enrichment overhead vs hand-written SQL baseline")
	sizes := []int{100, 400, 1600}
	if quick {
		sizes = []int{50, 150}
	}
	reps := 5
	if quick {
		reps = 3
	}

	tab := newTable("landfills", "rows", "plain SQL", "SESQL enrich", "hand-written join", "SESQL/hand ratio")
	for _, n := range sizes {
		enr, err := scaledFixture(n, 0)
		if err != nil {
			return err
		}
		rowCount, err := countRows(enr.DB, "elem_contained")
		if err != nil {
			return err
		}

		// (a) plain SQL, no context.
		plain, err := medianOf(reps, func() error {
			_, err := enr.DB.Query(`SELECT elem_name, landfill_name FROM elem_contained`)
			return err
		})
		if err != nil {
			return err
		}

		// (b) SESQL schema extension.
		sesqlTime, err := medianOf(reps, func() error {
			_, err := enr.Query("alice", `SELECT elem_name, landfill_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
			return err
		})
		if err != nil {
			return err
		}

		// (c) hand-written: manually materialise dangerLevel into a table
		// (the ETL the user would have to redo at every KB change), then a
		// plain LEFT JOIN. Only the join is timed: the favourable case.
		view, err := enr.Platform.View("alice")
		if err != nil {
			return err
		}
		if err := materializeDangerTable(enr.DB, view); err != nil {
			return err
		}
		hand, err := medianOf(reps, func() error {
			_, err := enr.DB.Query(`SELECT e.elem_name, e.landfill_name, d.level
FROM elem_contained e LEFT JOIN danger d ON e.elem_name = d.elem`)
			return err
		})
		if err != nil {
			return err
		}

		ratio := float64(sesqlTime) / float64(hand)
		tab.add(n, rowCount, plain, sesqlTime, hand, ratio)
	}
	tab.write(w)
	return nil
}

func countRows(db *engine.DB, tbl string) (int, error) {
	r, err := db.Query("SELECT COUNT(*) FROM " + tbl)
	if err != nil {
		return 0, err
	}
	return int(r.Rows[0][0].Int()), nil
}

// materializeDangerTable exports the user's dangerLevel knowledge into a
// relational table, emulating the manual pipeline SESQL replaces.
func materializeDangerTable(db *engine.DB, view rdf.Graph) error {
	if _, err := db.Exec(`DROP TABLE IF EXISTS danger`); err != nil {
		return err
	}
	if _, err := db.Exec(`CREATE TABLE danger (elem TEXT, level TEXT)`); err != nil {
		return err
	}
	tab, err := db.Catalog().Table("danger")
	if err != nil {
		return err
	}
	prop := rdf.NewIRI("http://smartground.eu/onto#dangerLevel")
	var insertErr error
	rdf.ForEach(view, rdf.Pattern{P: prop}, func(t rdf.Triple) bool {
		elem := t.S.Value
		if i := lastSep(elem); i >= 0 {
			elem = elem[i+1:]
		}
		insertErr = tab.Insert([]sqlval.Value{sqlval.NewString(elem), sqlval.NewString(t.O.Value)})
		return insertErr == nil
	})
	return insertErr
}

func lastSep(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '#' || s[i] == '/' {
			return i
		}
	}
	return -1
}
