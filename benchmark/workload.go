package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"crosse/internal/dataset"
	"crosse/internal/engine"
)

const numClients = 2 // closed loop; nproc is 2 and REST callers wait for their reply

type opKind uint8

const (
	opQuery   opKind = iota // POST /api/v1/query
	opSPARQL                // POST /api/v1/sparql
	opInsert                // POST /api/v1/statements
	opRetract               // DELETE /api/v1/statements/{id}
)

// op is one generated request. Everything the server will see is fixed
// here, before the server starts, except a retract's statement id, which
// is whatever the server answered to the insert it undoes.
type op struct {
	shape   int // index into workload.shapes
	kind    opKind
	ordered bool // the query's ORDER BY is a total order: compare rows as a sequence
	ryw     bool // the read covers what its user last wrote: check read-your-writes on it
	user    string
	text    string // query text sent; for an insert, the dangerLevel literal
	canon   string // query with the same answer by construction (no-op literal normalised); "" means text
	subject string // insert: the element annotated
	insert  int    // insert: its ordinal among this client's inserts; retract: the ordinal it undoes
	body    string // request body as sent
}

func (o *op) oracleText() string {
	if o.canon != "" {
		return o.canon
	}
	return o.text
}

func (o *op) isWrite() bool { return o.kind == opInsert || o.kind == opRetract }

// clientOps is what one client sends: the warm-up once, before the measured
// window, then seq, cycled until time is up.
type clientOps struct{ warm, seq []op }

// workload is one traffic mix. gen generates every request of a run from
// rng alone; db is the databank, for generators that need to know its rows.
type workload struct {
	name    string
	why     string
	spec    fixtureSpec
	shapes  []string
	tailPct float64 // percentile reported as latency_tail_ms
	gen     func(rng *rand.Rand, db *engine.DB) ([numClients]clientOps, error)
}

var workloads = []workload{
	{
		name:    "enrich_uncached",
		why:     "six enrichment strategies over texts that never repeat within either 4096-entry cache: every request pays the whole Fig. 6 pipeline",
		spec:    fixtureSpec{landfills: 2000, users: numUsers},
		shapes:  enrichShapes,
		tailPct: 99,
		gen:     genEnrichUncached,
	},
	{
		name:    "enrich_hot",
		why:     "the same six templates over 3072 keys that fit the result cache: HTTP, key build, cache get and JSON encode do the work, the executors almost none",
		spec:    fixtureSpec{landfills: 2000, users: numUsers},
		shapes:  enrichShapes,
		tailPct: 99,
		gen:     genEnrichHot,
	},
	{
		name:    "belief_churn",
		why:     "one journaled insert or retract per three reads: kb and rdf write paths, wal appends and per-user cache invalidation do the distinctive work",
		spec:    fixtureSpec{landfills: 2000, users: numUsers, journaled: true},
		shapes:  churnShapes,
		tailPct: 95,
		gen:     genBeliefChurn,
	},
	{
		name:    "federated_scan",
		why:     "landfill and elem_contained are foreign tables behind a loopback fdw server: wire encode, decode and round trips dominate; every other workload bypasses fdw",
		spec:    fixtureSpec{landfills: 2000, users: numUsers, federated: true},
		shapes:  federatedShapes,
		tailPct: 95,
		gen:     genFederatedScan,
	},
	{
		name:    "analytic_large",
		why:     "100k-row sort, aggregate, join and a 100k-edge path closure, uncached: the only workload where the morsel scheduler and the final stage can show",
		spec:    fixtureSpec{landfills: 8400, users: analyticUsers, chainEdges: 100000},
		shapes:  analyticShapes,
		tailPct: 90,
		gen:     genAnalyticLarge,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func jsonBody(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and bools always marshal
	}
	return string(b)
}

func queryOp(shape int, user, text, canon string, ordered bool) op {
	return op{shape: shape, kind: opQuery, user: user, text: text, canon: canon, ordered: ordered,
		body: jsonBody(map[string]string{"user": user, "sesql": text})}
}

func sparqlOp(shape int, user, text, canon string) op {
	return op{shape: shape, kind: opSPARQL, user: user, text: text, canon: canon,
		body: jsonBody(map[string]string{"user": user, "query": text})}
}

// The six enrichment strategies of Sec. IV, after
// experiments.scaledEnrichmentQueries, each narrowed by a text literal
// (landfill, city or element) and a numeric threshold so that one template
// spans far more distinct texts than the caches hold: 2000 landfills × 100
// amounts, or 40 cities × 500 areas, × 16 users.
var enrichShapes = []string{
	"schema_extension", "schema_replacement", "bool_schema_extension",
	"bool_schema_replacement", "replace_constant", "replace_variable",
}

func enrichText(shape, landfill, city, elem, n int) string {
	lf, ct, el := dataset.LandfillName(landfill), dataset.CityName(city), dataset.ElementName(elem)
	switch shape {
	case 0:
		return fmt.Sprintf("SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)", lf, n%100)
	case 1:
		return fmt.Sprintf("SELECT name, city FROM landfill WHERE city = '%s' AND area >= %d ENRICH SCHEMAREPLACEMENT(city, inCountry)", ct, 50+n%500)
	case 2:
		return fmt.Sprintf("SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)", lf, n%100)
	case 3:
		return fmt.Sprintf("SELECT name, city FROM landfill WHERE city = '%s' AND area >= %d ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, %s)", ct, 50+n%500, dataset.CountryName(city))
	case 4:
		return fmt.Sprintf("SELECT landfill_name, amount FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d AND ${elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)", lf, n%100)
	default:
		return fmt.Sprintf("SELECT landfill_name, elem_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d AND ${elem_name = '%s':c1} ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)", lf, n%100, el)
	}
}

// uncachedPool is the per-client pool size of the uncached workloads. A
// client cycles its pool in order, so between two uses of one text it alone
// sends uncachedPool-1 other texts: more than the 4096 entries of the
// result cache (LRU) and of the plan cache (flushed when full), whatever
// the other client does. Every request misses both.
const uncachedPool = 4608

// distinctPools fills one pool per client, no text used twice anywhere.
// Requests come in rounds of one per shape, so shape counts are equal run
// to run; the order inside a round is shuffled, or the two clients would
// settle into one fixed phase against each other and stay there for a run.
func distinctPools(rng *rand.Rand, shapes int, draw func(shape int) string) [numClients]clientOps {
	var out [numClients]clientOps
	seen := map[string]bool{}
	per := uncachedPool / shapes
	for c := range out {
		texts := make([][]string, shapes)
		for s := range texts {
			for len(texts[s]) < per {
				if t := draw(s); !seen[t] {
					seen[t] = true
					texts[s] = append(texts[s], t)
				}
			}
		}
		for i := 0; i < per; i++ {
			for _, s := range rng.Perm(shapes) {
				out[c].seq = append(out[c].seq, queryOp(s, userName(rng.Intn(numUsers)), texts[s][i], "", false))
			}
		}
	}
	return out
}

func genEnrichUncached(rng *rand.Rand, _ *engine.DB) ([numClients]clientOps, error) {
	cfg := dataset.DefaultConfig()
	out := distinctPools(rng, len(enrichShapes), func(s int) string {
		return enrichText(s, rng.Intn(2000), rng.Intn(cfg.Cities), rng.Intn(cfg.Elements), rng.Intn(1<<20))
	})
	// The warm-up sends the head of the pool: it opens the connections and
	// faults in the code paths. What it caches is evicted before the pool
	// wraps.
	for c := range out {
		out[c].warm = out[c].seq[:240]
	}
	return out, nil
}

// Hot key set: 6 templates × 32 literals × 16 users = 3072 keys, which fit
// the 4096-entry result cache.
const hotLiterals = 32

// hotText spreads the hot landfills over the table and fixes the threshold.
func hotText(shape, lit int) string { return enrichText(shape, lit*61, lit, lit, 10) }

func genEnrichHot(rng *rand.Rand, _ *engine.DB) ([numClients]clientOps, error) {
	var out [numClients]clientOps
	// Warm-up: every key once, split between the clients, so the measured
	// window starts with the whole key set cached.
	k := 0
	for s := range enrichShapes {
		for lit := 0; lit < hotLiterals; lit++ {
			for u := 0; u < numUsers; u++ {
				c := k % numClients
				out[c].warm = append(out[c].warm, queryOp(s, userName(u), hotText(s, lit), "", false))
				k++
			}
		}
	}
	for c := range out {
		zipf := rand.NewZipf(rng, 1.1, 1, hotLiterals-1)
		for i := 0; i < 2048; i++ {
			for _, s := range rng.Perm(len(enrichShapes)) {
				out[c].seq = append(out[c].seq, queryOp(s, userName(rng.Intn(numUsers)), hotText(s, int(zipf.Uint64())), "", false))
			}
		}
	}
	return out, nil
}

// belief_churn: each client owns the users of its parity, so a user's view
// only ever changes through one sequential client and the expected answer
// of every read is a function of that client's own sequence. The first two
// owned users write; all eight are read. One cycle is a write, the writer
// re-reading the landfill it annotates, and two hot reads.
var churnShapes = []string{"read_own", "read_hot_extension", "read_hot_constant", "insert", "retract"}

const (
	churnWriters = 2
	churnLive    = 8     // statements each writer keeps live; the oldest is retracted
	churnCycles  = 40000 // cycles generated per client; a run that exhausts them ends early
)

// churnHotText maps the two hot read shapes onto enrichment templates.
func churnHotText(shape, lit int) string {
	if shape == 1 {
		return hotText(0, lit)
	}
	return hotText(4, lit)
}

func genBeliefChurn(rng *rand.Rand, db *engine.DB) ([numClients]clientOps, error) {
	var out [numClients]clientOps
	for c := range out {
		var owned []int
		for u := c; u < numUsers; u += numClients {
			owned = append(owned, u)
		}
		// A writer annotates elements of one landfill and re-reads it.
		home := make([]string, churnWriters)
		elems := make([][]string, churnWriters)
		for w := range home {
			home[w] = dataset.LandfillName(100 + 7*owned[w])
			res, err := db.Query(fmt.Sprintf("SELECT elem_name FROM elem_contained WHERE landfill_name = '%s'", home[w]))
			if err != nil || len(res.Rows) == 0 {
				return out, fmt.Errorf("elements of %s: %d rows, %v", home[w], len(res.Rows), err)
			}
			for _, r := range res.Rows {
				elems[w] = append(elems[w], r[0].String())
			}
		}
		inserts := 0
		live := make([][]int, churnWriters) // ordinals of each writer's live inserts, oldest first
		write := func(w int, retract bool) op {
			user := userName(owned[w])
			if retract {
				o := op{shape: 4, kind: opRetract, user: user, insert: live[w][0]}
				live[w] = live[w][1:]
				return o
			}
			o := op{shape: 3, kind: opInsert, user: user, insert: inserts,
				subject: elems[w][rng.Intn(len(elems[w]))], text: fmt.Sprintf("c%d-%d", c, inserts)}
			o.body = jsonBody(map[string]any{"user": user, "subject": o.subject, "property": "dangerLevel", "object": o.text, "object_literal": true})
			live[w] = append(live[w], inserts)
			inserts++
			return o
		}
		for w := 0; w < churnWriters; w++ {
			for i := 0; i < churnLive; i++ {
				out[c].warm = append(out[c].warm, write(w, false))
			}
		}
		// The reads are few distinct requests sent many times: render each
		// once, or the sequences of a run hold 100 MB of identical strings.
		hot := map[[3]int]op{}
		for _, u := range owned {
			for lit := 0; lit < hotLiterals; lit++ {
				for shape := 1; shape <= 2; shape++ {
					hot[[3]int{shape, u, lit}] = queryOp(shape, userName(u), churnHotText(shape, lit), "", false)
					out[c].warm = append(out[c].warm, hot[[3]int{shape, u, lit}])
				}
			}
		}
		own := make([]op, churnWriters)
		for w := range own {
			own[w] = queryOp(0, userName(owned[w]), fmt.Sprintf("SELECT elem_name, amount FROM elem_contained WHERE landfill_name = '%s' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)", home[w]), "", false)
			own[w].ryw = true
		}
		zipf := rand.NewZipf(rng, 1.1, 1, hotLiterals-1)
		for cycle := 0; cycle < churnCycles; cycle++ {
			w := cycle % churnWriters
			// Alternating insert and retract-oldest keeps the view size
			// stationary.
			out[c].seq = append(out[c].seq, write(w, (cycle/churnWriters)%2 == 1), own[w])
			for shape := 1; shape <= 2; shape++ {
				out[c].seq = append(out[c].seq, hot[[3]int{shape, owned[rng.Intn(len(owned))], int(zipf.Uint64())}])
			}
		}
	}
	return out, nil
}

var federatedShapes = []string{"pushdown_extension", "fullscan_bool_extension", "join_replace_constant"}

func genFederatedScan(rng *rand.Rand, _ *engine.DB) ([numClients]clientOps, error) {
	out := distinctPools(rng, len(federatedShapes), func(s int) string {
		switch s {
		case 0:
			return fmt.Sprintf("SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
				dataset.LandfillName(rng.Intn(2000)), rng.Intn(100))
		case 1:
			// area is uniform in [50, 550): every threshold keeps 2–4 % of
			// the 2000 rows the scan ships.
			return fmt.Sprintf("SELECT name, city FROM landfill WHERE area >= 53%d.%03d ENRICH BOOLSCHEMAEXTENSION(city, inCountry, country_04)", rng.Intn(10), rng.Intn(1000))
		default:
			return fmt.Sprintf("SELECT e.landfill_name, e.elem_name, a.lab_name FROM elem_contained e, analysis a WHERE e.landfill_name = '%s' AND a.landfill_name = e.landfill_name AND a.purity >= 0.%03d AND ${e.elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)",
				dataset.LandfillName(rng.Intn(2000)), rng.Intn(600))
		}
	})
	for c := range out {
		out[c].warm = out[c].seq[:60]
	}
	return out, nil
}

// analytic_large shapes. Each text carries a literal n that cannot change
// the answer (amounts are below 100, so "amount < 100000+n" always holds;
// the closure from any of the first 1000 chain nodes reaches the same
// nodes whose index ends in 000), so every request misses the result cache
// while one oracle answer per (user, shape) covers them all.
var analyticShapes = []string{"order_enriched", "group_sum", "join_sort_offset", "sparql_closure"}

const analyticUsers = 4

func analyticOp(shape int, user string, n int) op {
	text := func(n int) string {
		switch shape {
		case 0:
			return fmt.Sprintf("SELECT elem_name, landfill_name, amount FROM elem_contained WHERE amount < 12 AND amount < %d AND ${elem_name = HazardousWaste:c1} ORDER BY dangerLevel, amount, landfill_name, elem_name ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery) SCHEMAEXTENSION(elem_name, dangerLevel)", 100000+n)
		case 1:
			return fmt.Sprintf("SELECT elem_name, SUM(amount), COUNT(*) FROM elem_contained WHERE amount < %d GROUP BY elem_name", 100000+n)
		case 2:
			return fmt.Sprintf("SELECT e.landfill_name, e.elem_name, e.amount, l.city FROM elem_contained e JOIN landfill l ON l.name = e.landfill_name WHERE e.amount < %d ORDER BY e.amount, e.landfill_name, e.elem_name LIMIT 100 OFFSET 50000", 100000+n)
		default:
			const ns = "http://smartground.eu/onto#"
			return fmt.Sprintf(`SELECT ?y WHERE { <%s%s> <%soreAssemblage>+ ?y . FILTER REGEX(STR(?y), "_[0-9]+000$") }`, ns, chainNode(n), ns)
		}
	}
	if shape == 3 {
		return sparqlOp(shape, user, text(n), text(0))
	}
	return queryOp(shape, user, text(n), text(0), shape != 1)
}

func genAnalyticLarge(rng *rand.Rand, _ *engine.DB) ([numClients]clientOps, error) {
	var out [numClients]clientOps
	nonces := rng.Perm(1000) // each used once, so no text repeats in a run
	next := func() int { n := nonces[0]; nonces = nonces[1:]; return n }
	for c := range out {
		for s := range analyticShapes {
			out[c].warm = append(out[c].warm, analyticOp(s, userName(rng.Intn(analyticUsers)), next()))
		}
		// A run sends a shape a few dozen times, so users take turns: drawn
		// at random, the mix of users would differ from seed to seed, and
		// with it the rows order_enriched returns.
		for i := 0; i < 240; i++ {
			n := next()
			for _, s := range rng.Perm(len(analyticShapes)) {
				out[c].seq = append(out[c].seq, analyticOp(s, userName((i+c)%analyticUsers), n))
			}
		}
	}
	return out, nil
}
