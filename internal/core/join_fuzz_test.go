package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sqlval"
)

// The fuzzed world: elem_contained rows over a few elements (one slot is
// NULL), landfills and lots, and alice's beliefs over a few properties
// whose objects are literals or the elements themselves (so one step's
// column can be the next step's attribute). lot is an INTEGER column the
// mapping renders as typed literals; its beliefs' subjects are INTEGER
// and DOUBLE literals, some equal to a lot only under Compare (7 and
// 7.0) and some apart by one beyond 2^53, where a float64 cannot tell
// them apart.
var (
	fuzzElems     = []string{"Mercury", "Lead", "Zinc", "Gold", "Asbestos", ""}
	fuzzLandfills = []string{"a", "b", "c"}
	fuzzLots      = []string{"7", "9007199254740992", "9007199254740993", "2", "NULL"}
	fuzzProps     = []string{"dangerLevel", "alias", "oreAssemblage", "isA"}
	fuzzObjects   = []rdf.Term{lit("high"), lit("low"), lit("extreme"), smg("Mercury"), smg("Lead"), smg("Zinc"), smg("HazardousWaste")}
	fuzzLotTerms  = []rdf.Term{
		rdf.NewTypedLiteral("7", rdf.XSDInteger), rdf.NewTypedLiteral("7.0", rdf.XSDDouble),
		rdf.NewTypedLiteral("9007199254740992", rdf.XSDInteger), rdf.NewTypedLiteral("9007199254740992", rdf.XSDDouble),
		rdf.NewTypedLiteral("9007199254740993", rdf.XSDInteger), rdf.NewTypedLiteral("2", rdf.XSDInteger),
	}
)

// fuzzMapping renders every other column as an IRI under DefaultIRIPrefix.
const fuzzMapping = `<resourceMapping><map column="lot" literal="true"/></resourceMapping>`

// subjectObjects is one subject of a property, with its objects in
// solution order.
type subjectObjects struct {
	subj sqlval.Value
	objs []sqlval.Value
}

// modelRow is one row of the naive model: the base row's columns by name
// and the result's columns so far.
type modelRow struct {
	base map[string]sqlval.Value
	cols []sqlval.Value
}

// FuzzEnrichJoin runs the join pass and the compiled final stage through
// the whole pipeline and checks them against a naive model of the
// enriched answer: filter by trying every candidate, fan out by a nested
// loop per step, stable sort over the result's columns, then the window.
// The model takes each property's objects in the order the SPARQL executor
// lists them, which is the order a fan-out emits them in, subject by
// subject for the subjects Compare-equal to the attribute's value.
func FuzzEnrichJoin(f *testing.F) {
	// The LIMIT-after-fan-out repro: landfill b holds Mercury and Gold, and
	// Mercury is both high and extreme. elem_name DESC LIMIT 1 OFFSET 1
	// must answer Mercury|extreme.
	f.Add([]byte{9, 6}, []byte{0, 0, 0, 2}, []byte{0}, byte(0), byte(1), byte(0x09), int8(1), int8(1), byte(0))
	f.Add([]byte{0, 1, 2, 9, 10, 13, 5}, []byte{0, 0, 5, 1, 1, 3, 10, 4, 11, 5, 16, 6, 15, 6, 0, 2}, []byte{3, 0x21, 0x41}, byte(1), byte(0), byte(3), int8(4), int8(2), byte(1))
	f.Add([]byte{6, 7, 8, 12, 14, 3, 4}, []byte{15, 6, 16, 6, 10, 3, 11, 4, 1, 1}, []byte{4, 0x12, 2}, byte(2), byte(0), byte(0x82), int8(-1), int8(3), byte(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, []byte{5, 0, 5, 1, 6, 2, 0, 0, 1, 1}, []byte{1, 0x20}, byte(3), byte(2), byte(0x81), int8(7), int8(-1), byte(0))
	// The 2^53 repro: lots 2^53, 2^53+1 and 7 extended with dangerLevel,
	// believed of INTEGER 2^53 (high) and DOUBLE 7.0 (low). 2^53+1 shares
	// 2^53's float64 join key but must answer NULL; 7 must answer low.
	f.Add([]byte{18, 36, 0}, []byte{0x82, 0, 0x81, 1}, []byte{0x24}, byte(5), byte(0), byte(0x03), int8(-1), int8(-1), byte(1))
	f.Fuzz(func(t *testing.T, rows, beliefs, steps []byte, proj, where, order byte, limit, offset int8, par byte) {
		if len(rows) > 16 || len(beliefs) > 40 || len(steps) > 3 {
			return
		}
		db := engine.Open()
		var script strings.Builder
		script.WriteString("CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, lot INT);\n")
		for _, b := range rows {
			elem := "NULL"
			if s := fuzzElems[int(b)%len(fuzzElems)]; s != "" {
				elem = "'" + s + "'"
			}
			fmt.Fprintf(&script, "INSERT INTO elem_contained VALUES (%s, '%s', %s);\n", elem, fuzzLandfills[int(b)/len(fuzzElems)%len(fuzzLandfills)], fuzzLot(b))
		}
		if _, err := db.ExecScript(script.String()); err != nil {
			t.Fatal(err)
		}
		p := kb.NewPlatform()
		if err := p.RegisterUser("alice"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(beliefs); i += 2 {
			b := int(beliefs[i])
			s, prop := smg(fuzzElems[b%5]), fuzzProps[b/5%len(fuzzProps)]
			if b&0x80 != 0 { // a belief about a lot
				s, prop = fuzzLotTerms[b&7%len(fuzzLotTerms)], fuzzProps[b>>3&3]
			}
			if _, err := p.Insert("alice", rdf.Triple{S: s, P: smg(prop), O: fuzzObjects[int(beliefs[i+1])%len(fuzzObjects)]}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := LoadMapping(strings.NewReader(fuzzMapping))
		if err != nil {
			t.Fatal(err)
		}
		e := New(db, p, m)
		e.SetExecOptions(ExecOptions{Parallelism: 1 + int(par)%4})

		// objects lists prop's subjects in order of their first solution,
		// each with its objects in SPARQL order.
		objects := func(prop string) []subjectObjects {
			r, err := e.SPARQL("alice", `SELECT ?s ?o WHERE { ?s <`+DefaultIRIPrefix+prop+`> ?o }`)
			if err != nil {
				t.Fatal(err)
			}
			var out []subjectObjects
			for _, b := range r.Bindings {
				s := e.Mapping.FromTerm(b["s"])
				i := slices.IndexFunc(out, func(so subjectObjects) bool { return so.subj == s })
				if i < 0 {
					i, out = len(out), append(out, subjectObjects{subj: s})
				}
				out[i].objs = append(out[i].objs, e.Mapping.FromTerm(b["o"]))
			}
			return out
		}
		// match returns the objects of every subject Compare-equal to the
		// subject the value v of column col names (a lot is itself, any
		// other value the text of an IRI), subject by subject; NULL names
		// none.
		match := func(subjs []subjectObjects, col string, v sqlval.Value) []sqlval.Value {
			if v.IsNull() {
				return nil
			}
			if col != "lot" {
				v = sqlval.NewString(v.String())
			}
			var out []sqlval.Value
			for _, so := range subjs {
				if c, err := sqlval.Compare(so.subj, v); err == nil && c == 0 {
					out = append(out, so.objs...)
				}
			}
			return out
		}

		// The query and, step by step, the model's answer.
		var headers []string
		var sel string
		switch proj % 4 {
		case 0:
			sel, headers = "elem_name", []string{"elem_name"}
		case 1:
			sel, headers = "elem_name, landfill_name", []string{"elem_name", "landfill_name"}
		case 2:
			sel, headers = "*", []string{"elem_name", "landfill_name", "lot"}
		default:
			sel, headers = "landfill_name, elem_name", []string{"landfill_name", "elem_name"}
		}
		if proj&4 != 0 && proj%4 != 2 {
			sel, headers = sel+", lot", append(headers, "lot")
		}
		var model []*modelRow
		for _, b := range rows {
			elem := sqlval.Null
			if s := fuzzElems[int(b)%len(fuzzElems)]; s != "" {
				elem = sqlval.NewString(s)
			}
			lot := sqlval.Null
			if s := fuzzLot(b); s != "NULL" {
				n, _ := strconv.ParseInt(s, 10, 64)
				lot = sqlval.NewInt(n)
			}
			base := map[string]sqlval.Value{"elem_name": elem, "landfill_name": sqlval.NewString(fuzzLandfills[int(b)/len(fuzzElems)%len(fuzzLandfills)]), "lot": lot}
			r := &modelRow{base: base}
			for _, h := range headers {
				r.cols = append(r.cols, base[h])
			}
			model = append(model, r)
		}
		var conds, enrich []string
		if where&1 != 0 {
			conds = append(conds, "landfill_name = 'b'")
			model = slices.DeleteFunc(model, func(r *modelRow) bool { return r.base["landfill_name"].String() != "b" })
		}
		// A WHERE enrichment keeps a row when some candidate satisfies
		// elem_name = candidate.
		keepIf := func(cands func(r *modelRow) []sqlval.Value, match func(r *modelRow, v sqlval.Value) bool) {
			model = slices.DeleteFunc(model, func(r *modelRow) bool {
				return !slices.ContainsFunc(cands(r), func(v sqlval.Value) bool { return match(r, v) })
			})
		}
		equal := func(a, b sqlval.Value) bool {
			return !a.IsNull() && !b.IsNull() && a.Type() == b.Type() && a.String() == b.String()
		}
		switch where >> 1 % 3 {
		case 1: // REPLACECONSTANT(c1, K, prop): candidates are K's objects
			k, prop := fuzzElems[int(where>>3)%5], fuzzProps[int(where>>6)%len(fuzzProps)]
			conds = append(conds, fmt.Sprintf("${elem_name = %s:c1}", k))
			enrich = append(enrich, fmt.Sprintf("REPLACECONSTANT(c1, %s, %s)", k, prop))
			vals := match(objects(prop), "elem_name", sqlval.NewString(k))
			keepIf(func(*modelRow) []sqlval.Value { return vals },
				func(r *modelRow, v sqlval.Value) bool { return equal(r.base["elem_name"], v) })
		case 2: // REPLACEVARIABLE(c1, elem_name, prop): candidates are elem_name's objects
			k, prop := fuzzElems[int(where>>3)%5], fuzzProps[int(where>>6)%len(fuzzProps)]
			conds = append(conds, fmt.Sprintf("${elem_name = '%s':c1}", k))
			enrich = append(enrich, fmt.Sprintf("REPLACEVARIABLE(c1, elem_name, %s)", prop))
			objs := objects(prop)
			keepIf(func(r *modelRow) []sqlval.Value {
				return match(objs, "elem_name", r.base["elem_name"])
			}, func(_ *modelRow, v sqlval.Value) bool { return equal(v, sqlval.NewString(k)) })
		}
		for _, s := range steps {
			prop := fuzzProps[int(s)>>2%3] // dangerLevel, alias or oreAssemblage
			at := int(s>>4) % len(headers)
			attr := headers[at]
			name := uniqueName(prop, headers)
			kind := s % 4
			var cands func(v sqlval.Value) []sqlval.Value
			switch kind {
			case 0, 1:
				objs := objects(prop)
				cands = func(v sqlval.Value) []sqlval.Value {
					if got := match(objs, attr, v); len(got) > 0 {
						return got
					}
					return []sqlval.Value{sqlval.Null}
				}
				enrich = append(enrich, fmt.Sprintf("%s(%s, %s)", map[byte]string{0: "SCHEMAEXTENSION", 1: "SCHEMAREPLACEMENT"}[kind], attr, prop))
			default:
				prop, name = "isA", uniqueName("isA", headers)
				objs := objects(prop)
				cands = func(v sqlval.Value) []sqlval.Value {
					return []sqlval.Value{sqlval.NewBool(slices.ContainsFunc(match(objs, attr, v), func(o sqlval.Value) bool { return o.String() == "HazardousWaste" }))}
				}
				enrich = append(enrich, fmt.Sprintf("%s(%s, isA, HazardousWaste)", map[byte]string{2: "BOOLSCHEMAEXTENSION", 3: "BOOLSCHEMAREPLACEMENT"}[kind], attr))
			}
			var next []*modelRow
			for _, r := range model {
				for _, v := range cands(r.cols[at]) {
					cols := slices.Clone(r.cols)
					if kind%2 == 1 {
						cols[at] = v
					} else {
						cols = append(cols, v)
					}
					next = append(next, &modelRow{base: r.base, cols: cols})
				}
			}
			model = next
			if kind%2 == 1 {
				headers[at] = name
			} else {
				headers = append(headers, name)
			}
		}
		if len(enrich) == 0 {
			return
		}

		query := "SELECT " + sel + " FROM elem_contained"
		if len(conds) > 0 {
			query += " WHERE " + strings.Join(conds, " AND ")
		}
		type key2 struct {
			col  int
			desc bool
		}
		var keys []key2
		var obs []string
		for _, o := range []byte{order, order >> 4} {
			if o&7 == 0 {
				break
			}
			k := key2{int(o&7-1) % len(headers), o&8 != 0}
			keys = append(keys, k)
			ob := headers[k.col]
			if k.desc {
				ob += " DESC"
			}
			obs = append(obs, ob)
		}
		if len(obs) > 0 {
			query += " ORDER BY " + strings.Join(obs, ", ")
		}
		slices.SortStableFunc(model, func(a, b *modelRow) int {
			for _, k := range keys {
				if c := sqlval.CompareForSort(a.cols[k.col], b.cols[k.col]); c != 0 {
					if k.desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
		if limit >= 0 {
			query += fmt.Sprintf(" LIMIT %d", limit%8)
		}
		if offset >= 0 {
			query += fmt.Sprintf(" OFFSET %d", offset%8)
			model = model[min(int(offset%8), len(model)):]
		}
		if limit >= 0 {
			model = model[:min(int(limit%8), len(model))]
		}
		query += " ENRICH " + strings.Join(enrich, " ")

		r, err := e.Query("alice", query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if got := strings.Join(r.Columns, ","); got != strings.Join(headers, ",") {
			t.Fatalf("%s: columns %s, want %s", query, got, strings.Join(headers, ","))
		}
		want := make([]string, len(model))
		for i, m := range model {
			cells := make([]string, len(m.cols))
			for j, v := range m.cols {
				cells[j] = v.String()
			}
			want[i] = strings.Join(cells, "|")
		}
		if got := orderedRows(r); got != strings.Join(want, " ") {
			t.Fatalf("%s:\n got %s\nwant %s", query, got, strings.Join(want, " "))
		}
	})
}

// fuzzLot is the lot of the row byte b, as SQL.
func fuzzLot(b byte) string {
	return fuzzLots[int(b)/(len(fuzzElems)*len(fuzzLandfills))%len(fuzzLots)]
}
