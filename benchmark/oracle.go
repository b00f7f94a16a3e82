package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// answer is a query result reduced to what both sides can render: column
// names and cells as the REST layer prints them.
type answer struct {
	cols []string
	rows [][]string
}

// digest hashes the answer. Row order is part of it only when ordered: an
// un-ORDERed result enumerates map-backed posting lists, whose order
// differs run to run.
func (a answer) digest(ordered bool) uint64 {
	rowHash := func(cells []string) uint64 {
		h := fnv.New64a()
		for _, c := range cells {
			h.Write([]byte(c))
			h.Write([]byte{0x1f})
		}
		return h.Sum64()
	}
	d := rowHash(a.cols) ^ uint64(len(a.rows))
	for _, r := range a.rows {
		h := rowHash(r)
		if ordered {
			d = d*1099511628211 ^ h
		} else {
			d += h * 0x9e3779b97f4a7c15 // commutative
		}
	}
	return d
}

func (a answer) hasCell(v string) bool {
	for _, r := range a.rows {
		for _, c := range r {
			if c == v {
				return true
			}
		}
	}
	return false
}

// foreignMarker returns a marker literal in the answer that belongs to a
// user other than the one asking: a belief leaked across views.
func (a answer) foreignMarker(user string) string {
	for _, r := range a.rows {
		for _, c := range r {
			if strings.HasPrefix(c, markerPrefix) && c != markerPrefix+user {
				return c
			}
		}
	}
	return ""
}

// parseAnswer decodes a 2xx body of /api/v1/query or /api/v1/sparql.
func parseAnswer(kind opKind, body []byte) (answer, error) {
	if kind == opSPARQL {
		var r struct {
			Vars     []string            `json:"vars"`
			Bindings []map[string]string `json:"bindings"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return answer{}, err
		}
		a := answer{cols: r.Vars, rows: make([][]string, len(r.Bindings))}
		for i, b := range r.Bindings {
			a.rows[i] = make([]string, len(r.Vars))
			for j, v := range r.Vars {
				a.rows[i][j] = b[v]
			}
		}
		return a, nil
	}
	var r struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, err
	}
	return answer{cols: r.Columns, rows: r.Rows}, nil
}

// oracle computes expected answers by calling the enrichment pipeline
// directly, serial, with no result cache, over databank tables that are all
// local. For a journaled workload it owns a twin platform and replays the
// clients' acknowledged writes on it; otherwise it reads the fixture's.
type oracle struct {
	enr   *core.Enricher
	p     *kb.Platform
	mu    sync.Mutex
	memo  map[oracleKey]uint64
	epoch map[string]int // writes replayed per user; part of the memo key
}

type oracleKey struct {
	user, text string
	epoch      int
}

func newOracle(fx *fixture) (*oracle, error) {
	p := fx.platform
	if fx.spec.journaled {
		var err error
		if p, err = buildPlatform(fx.spec); err != nil {
			return nil, err
		}
	}
	enr := core.New(fx.oracleDB, p, nil)
	enr.SetExecOptions(core.ExecOptions{Parallelism: 1})
	return &oracle{enr: enr, p: p, memo: map[oracleKey]uint64{}, epoch: map[string]int{}}, nil
}

func (or *oracle) answer(o *op) (answer, error) {
	if o.kind == opSPARQL {
		view, err := or.p.View(o.user)
		if err != nil {
			return answer{}, err
		}
		res, err := sparql.EvalOpts(view, o.oracleText(), sparql.Options{Parallelism: 1})
		if err != nil {
			return answer{}, err
		}
		a := answer{cols: res.Vars, rows: make([][]string, len(res.Bindings))}
		for i, b := range res.Bindings {
			a.rows[i] = make([]string, len(res.Vars))
			for j, v := range res.Vars {
				a.rows[i][j] = b[v].Value
			}
		}
		return a, nil
	}
	res, err := or.enr.Query(o.user, o.oracleText())
	if err != nil {
		return answer{}, err
	}
	a := answer{cols: res.Columns, rows: make([][]string, len(res.Rows))}
	for i, row := range res.Rows {
		a.rows[i] = make([]string, len(row))
		for j, v := range row {
			a.rows[i][j] = v.String()
		}
	}
	return a, nil
}

// expect returns the digest a read must have, given the writes replayed so
// far for its user.
func (or *oracle) expect(o *op) (uint64, error) {
	or.mu.Lock()
	key := oracleKey{o.user, o.oracleText(), or.epoch[o.user]}
	d, ok := or.memo[key]
	or.mu.Unlock()
	if ok {
		return d, nil
	}
	a, err := or.answer(o)
	if err != nil {
		return 0, fmt.Errorf("oracle %s %q: %w", o.user, o.oracleText(), err)
	}
	if m := a.foreignMarker(o.user); m != "" {
		return 0, fmt.Errorf("oracle answer for %s holds %q", o.user, m)
	}
	d = a.digest(o.ordered)
	or.mu.Lock()
	or.memo[key] = d
	or.mu.Unlock()
	return d, nil
}

// replayWrite applies an acknowledged write to the twin platform. ids maps
// the client's insert ordinals to twin statement ids.
func (or *oracle) replayWrite(o *op, ids map[int]string) error {
	or.mu.Lock()
	or.epoch[o.user]++
	or.mu.Unlock()
	if o.kind == opRetract {
		return or.p.Retract(o.user, ids[o.insert])
	}
	id, err := or.p.Insert(o.user, rdf.Triple{S: dataset.IRI(o.subject), P: dataset.IRI("dangerLevel"), O: rdf.NewLiteral(o.text)})
	ids[o.insert] = id
	return err
}

// verify replays every client's log in the order it was sent and marks the
// samples whose answer differs from the oracle's. Clients own disjoint
// users, so their logs replay independently.
func (or *oracle) verify(clients []*client) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := map[int]string{}
			for j := range c.log {
				s := &c.log[j]
				if s.fail != "" {
					continue
				}
				if s.op.isWrite() {
					if err := or.replayWrite(s.op, ids); err != nil {
						errs[i] = err
						return
					}
					continue
				}
				want, err := or.expect(s.op)
				if err != nil {
					errs[i] = err
					return
				}
				if s.digest != want {
					s.fail = fmt.Sprintf("answer digest %016x, oracle %016x", s.digest, want)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
