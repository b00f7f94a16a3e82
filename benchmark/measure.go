package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"time"

	"crosse/internal/core"
	"crosse/internal/engine"
	"crosse/internal/kb"
)

// setupRepeats is how often a run builds the platform, starts the server
// and warms it up. setup_s is the median; the last one is measured on.
const setupRepeats = 3

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // timings: how many requests the figure summarises
}

type shapeResult struct {
	P50Ms   float64 `json:"p50_ms"`
	Samples int     `json:"samples"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"` // the first few reasons
	Metrics   map[string]metricValue `json:"metrics"`
	Shapes    map[string]shapeResult `json:"shapes,omitempty"`
	Shares    map[string]float64     `json:"layer_shares,omitempty"` // traced: each layer's self time over rest_handler_us
}

// tally counts a measured request and reports whether it succeeded.
func (r *result) tally(w *workload, s *sample) bool {
	r.Attempted++
	if s.fail == "" {
		return true
	}
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, w.shapes[s.op.shape]+": "+s.fail)
	}
	return false
}

func (r *result) set(specs []metricSpec, name string, v float64, samples int) {
	for _, m := range specs {
		if m.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: m.unit, Samples: samples}
			return
		}
	}
	panic("metric not in spec.go: " + name)
}

// setUp builds the workload's platform, starts the server and sends the
// warm-up. It returns the running fixture, the clients (their connections
// open, a churn client holding the statement ids it was given) and the time
// the three steps took together.
func setUp(w *workload, ops *[numClients]clientOps, rng *rand.Rand) (fx *fixture, clients []*client, took time.Duration, err error) {
	t0 := time.Now()
	if fx, err = newFixture(w.spec); err != nil {
		return nil, nil, 0, err
	}
	defer func() {
		if err != nil {
			fx.close()
			fx.removeDir()
		}
	}()
	built := time.Since(t0)
	if ops[0].seq == nil {
		// Generated once, after the first build (a generator may read the
		// databank), and not counted as set-up: it is the harness's work.
		if *ops, err = w.gen(rng, fx.oracleDB); err != nil {
			return nil, nil, 0, err
		}
	}
	clients = make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(fx.baseURL)
	}
	warm := warmUp(clients, ops)
	for _, c := range clients {
		for _, s := range c.log {
			if s.fail != "" {
				return nil, nil, 0, fmt.Errorf("warm-up request failed: %s", s.fail)
			}
		}
	}
	return fx, clients, built + warm, nil
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// measureWorkload is the untraced run: set up (repeats times), drive the
// closed loop for the given time, check every answer, report the end-to-end
// metrics.
func measureWorkload(w *workload, seed int64, seconds, repeats int) (*result, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops [numClients]clientOps
	var fx *fixture
	var clients []*client
	var setups []float64
	for r := 0; r < repeats; r++ {
		if fx != nil {
			fx.close()
			fx.removeDir()
			fx, clients = nil, nil
			debug.FreeOSMemory() // collects first: no heap carries over into the next set-up
		}
		var took time.Duration
		var err error
		if fx, clients, took, err = setUp(w, &ops, rng); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer fx.removeDir()
	defer fx.close()

	window := measure(clients, &ops, time.Duration(seconds)*time.Second)
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}

	or, err := newOracle(fx)
	if err != nil {
		return nil, err
	}
	if err := or.verify(clients); err != nil {
		return nil, err
	}
	var lost []string
	if fx.journal != nil {
		if lost, err = checkRecovery(fx, clients); err != nil {
			return nil, err
		}
	}

	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: map[string]metricValue{}, Shapes: map[string]shapeResult{}}
	byShape := make([][]float64, len(w.shapes))
	writeShape := make([]bool, len(w.shapes))
	var reads, writes [][]float64
	ok := 0
	for _, c := range clients {
		for i := range c.log {
			if s := &c.log[i]; s.measured && res.tally(w, s) {
				ok++
				byShape[s.op.shape] = append(byShape[s.op.shape], float64(s.latency)/float64(time.Millisecond))
				writeShape[s.op.shape] = s.op.isWrite()
			}
		}
	}
	// An acknowledged write the reopened journal does not hold is a failed
	// request, whenever it was sent.
	res.Failed += len(lost)
	res.Failures = append(res.Failures, lost...)
	if res.Attempted == 0 || ok == 0 {
		return nil, errors.New("no request succeeded in the measured window")
	}
	for i, xs := range byShape {
		if len(xs) == 0 {
			return nil, fmt.Errorf("shape %s has no successful sample", w.shapes[i])
		}
		res.Shapes[w.shapes[i]] = shapeResult{P50Ms: median(xs), Samples: len(xs)}
		if writeShape[i] {
			writes = append(writes, xs)
		} else {
			reads = append(reads, xs)
		}
	}
	res.set(endToEnd, "throughput_qps", float64(ok)/window.Seconds(), ok)
	res.set(endToEnd, "latency_p50_ms", geomeanOfMedians(byShape), ok)
	res.set(endToEnd, "setup_s", median(setups), len(setups))
	res.set(endToEnd, "peak_rss_mb", rss, 0)
	if len(writes) > 0 {
		res.set(informational, "read_p50_ms", geomeanOfMedians(reads), ok)
		res.set(informational, "write_p50_ms", geomeanOfMedians(writes), ok)
	}
	if tail, err := tailPercentile(byShape, w.tailPct); err == nil {
		res.set(informational, "latency_tail_ms", tail, ok)
	} else {
		fmt.Printf("latency_tail_ms not reported: %v\n", err)
	}
	res.set(informational, "failed_share", 100*float64(res.Failed)/float64(res.Attempted), res.Attempted)
	res.set(informational, "window_s", window.Seconds(), 0)
	return res, nil
}

// checkRecovery closes the journal, reopens its directory and returns one
// line per acknowledged write the recovered platform does not reflect:
// every acknowledged insert not later retracted must be there with its
// literal, every acknowledged retract must be gone.
func checkRecovery(fx *fixture, clients []*client) ([]string, error) {
	fx.close()
	j, restored, err := core.OpenJournal(fx.dir, journalOptions(), func() (*engine.DB, *kb.Platform, error) {
		return nil, nil, errors.New("the journal's image is gone")
	})
	if err != nil {
		return nil, fmt.Errorf("reopen journal: %w", err)
	}
	defer j.Close()
	if !restored {
		return nil, errors.New("reopen journal: no image found")
	}
	var lost []string
	for _, c := range clients {
		retracted := map[int]bool{}
		for i := range c.log {
			if s := &c.log[i]; s.op.kind == opRetract && s.fail == "" {
				retracted[s.op.insert] = true
			}
		}
		for n, id := range c.ids {
			st, err := j.Platform().Statement(id)
			switch {
			case id == "":
			case retracted[n] && !errors.Is(err, kb.ErrNoStatement):
				lost = append(lost, fmt.Sprintf("recovery: retracted %s (%s) is back", id, c.lits[n]))
			case !retracted[n] && (err != nil || st.Triple.O.Value != c.lits[n]):
				lost = append(lost, fmt.Sprintf("recovery: inserted %s (%s) is missing: %v", id, c.lits[n], err))
			}
		}
	}
	return lost, nil
}
