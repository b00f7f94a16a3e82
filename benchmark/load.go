package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// sample is one request as the client saw it.
type sample struct {
	op       *op
	measured bool          // sent inside the measured window
	latency  time.Duration // send to last body byte
	end      time.Time     // when the last body byte arrived
	digest   uint64        // reads: digest of the answer
	fail     string        // why the request counts as failed; "" if it does not
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	log  []sample
	buf  bytes.Buffer

	// Statement ids and literals by insert ordinal: a retract names the id
	// the server gave the insert it undoes.
	ids, lits []string

	// Read-your-writes: the literal the last acknowledged write added or
	// removed, which this user's next read must show or must not show.
	rywUser, rywLit string
	rywPresent      bool
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

func (c *client) request(o *op) (*http.Request, error) {
	switch o.kind {
	case opQuery:
		return http.NewRequest("POST", c.base+"/api/v1/query", strings.NewReader(o.body))
	case opSPARQL:
		return http.NewRequest("POST", c.base+"/api/v1/sparql", strings.NewReader(o.body))
	case opInsert:
		return http.NewRequest("POST", c.base+"/api/v1/statements", strings.NewReader(o.body))
	default:
		if o.insert >= len(c.ids) || c.ids[o.insert] == "" {
			return nil, fmt.Errorf("retract of insert %d, which was not acknowledged", o.insert)
		}
		return http.NewRequest("DELETE", c.base+"/api/v1/statements/"+c.ids[o.insert]+"?user="+url.QueryEscape(o.user), nil)
	}
}

// do sends one request, waits for the whole reply, and checks everything
// that can be checked without the oracle.
func (c *client) do(o *op, measured bool) {
	s := sample{op: o, measured: measured}
	defer func() { c.log = append(c.log, s) }()
	req, err := c.request(o)
	if err != nil {
		s.fail = err.Error()
		return
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.fail = "transport: " + err.Error()
		return
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.latency = s.end.Sub(t0)
	if err != nil {
		s.fail = "transport: " + err.Error()
		return
	}
	if resp.StatusCode/100 != 2 {
		s.fail = fmt.Sprintf("status %d: %.200s", resp.StatusCode, c.buf.Bytes())
		return
	}
	switch o.kind {
	case opInsert:
		var r struct{ ID string }
		if err := json.Unmarshal(c.buf.Bytes(), &r); err != nil || r.ID == "" {
			s.fail = fmt.Sprintf("insert reply %.200s", c.buf.Bytes())
			return
		}
		for len(c.ids) <= o.insert {
			c.ids, c.lits = append(c.ids, ""), append(c.lits, "")
		}
		c.ids[o.insert], c.lits[o.insert] = r.ID, o.text
		c.rywUser, c.rywLit, c.rywPresent = o.user, o.text, true
	case opRetract:
		c.rywUser, c.rywLit, c.rywPresent = o.user, c.lits[o.insert], false
	default:
		a, err := parseAnswer(o.kind, c.buf.Bytes())
		if err != nil {
			s.fail = "body: " + err.Error()
			return
		}
		s.digest = a.digest(o.ordered)
		if m := a.foreignMarker(o.user); m != "" {
			s.fail = fmt.Sprintf("isolation: %s received %q", o.user, m)
		}
		if o.ryw && c.rywUser == o.user {
			if a.hasCell(c.rywLit) != c.rywPresent {
				s.fail = fmt.Sprintf("read-your-writes: %q present=%t after the write was acknowledged", c.rywLit, !c.rywPresent)
			}
			c.rywUser = ""
		}
	}
}

// eachClient runs fn once per client, concurrently, and waits.
func eachClient(clients []*client, fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

// warmUp sends every client's warm-up ops once and returns how long it took.
func warmUp(clients []*client, ops *[numClients]clientOps) time.Duration {
	t0 := time.Now()
	eachClient(clients, func(i int, c *client) {
		for j := range ops[i].warm {
			c.do(&ops[i].warm[j], false)
		}
	})
	return time.Since(t0)
}

// ramp is the head of the closed loop that is sent but not measured. The
// warm-up fills caches; only sustained load brings the garbage collector to
// its steady rhythm, and the first second before it does runs up to 40 %
// faster than the rest.
const ramp = time.Second

// measure cycles each client's sequence for ramp + d and returns the
// length of the measured window: d, or less if a client ran out of
// requests. A request that completes during the ramp or after the window
// closed is not a measured one.
func measure(clients []*client, ops *[numClients]clientOps, d time.Duration) time.Duration {
	// A churn sequence cannot wrap: its inserts carry unique literals.
	wraps := !ops[0].seq[0].isWrite()
	opens := time.Now().Add(ramp)
	closes := make([]time.Time, len(clients))
	first := make([]int, len(clients))
	eachClient(clients, func(i int, c *client) {
		seq := ops[i].seq
		first[i] = len(c.log)
		closes[i] = opens.Add(d)
		for n := 0; time.Now().Before(closes[i]); n++ {
			if !wraps && n == len(seq) {
				closes[i] = time.Now()
				break
			}
			c.do(&seq[n%len(seq)], true)
		}
	})
	closed := closes[0]
	for _, t := range closes {
		if t.Before(closed) {
			closed = t
		}
	}
	for i, c := range clients {
		for j := first[i]; j < len(c.log); j++ {
			if s := &c.log[j]; s.end.Before(opens) || s.end.After(closed) {
				s.measured = false
			}
		}
	}
	return closed.Sub(opens)
}
