package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is recorded beside every set of results: numbers from
// different boxes or commits do not compare.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

func readEnvironment() environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, numClients}
}

// resultSet is what run and trace write: one result per workload.
type resultSet struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Runs    []*result   `json:"runs"`
}

// runSet runs every workload once, each in a process of its own so that
// set-up time and peak memory are the workload's alone.
func runSet(traced bool, seed int64, seconds int, spansDir string) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	set := &resultSet{Env: readEnvironment(), Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		out := filepath.Join(scratchRoot, "result-"+w.name+".json")
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--out", out, "--trace", "0"}
		if traced {
			args[len(args)-1] = "1"
			if spansDir != "" {
				args = append(args, "--spans", filepath.Join(spansDir, "trace-"+w.name+".json"))
			}
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		res := &result{}
		if err := json.Unmarshal(b, res); err != nil {
			return nil, fmt.Errorf("%s: %w", out, err)
		}
		set.Runs = append(set.Runs, res)
	}
	return set, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cmdRun is `run` (end-to-end metrics) and `trace` (per-layer metrics).
func cmdRun(traced bool, args []string) int {
	name, seconds := "run", runSeconds
	if traced {
		name, seconds = "trace", 8
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "request generator seed")
	fs.IntVar(&seconds, "seconds", seconds, "measured window per workload (trace: cap on the traced pass)")
	out := fs.String("out", filepath.Join(scratchRoot, name+"-results.json"), "where to write the results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spansDir := ""
	if traced {
		spansDir = filepath.Dir(*out)
	}
	set, err := runSet(traced, *seed, seconds, spansDir)
	if err == nil {
		err = writeJSON(*out, set)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", name, err)
		return 1
	}
	failed := 0
	for _, r := range set.Runs {
		failed += r.Failed
	}
	fmt.Printf("wrote %s (nproc %d, GOMAXPROCS %d, %s, commit %s, %d clients); %d failed requests\n",
		*out, set.Env.NProc, set.Env.GOMAXPROCS, set.Env.Go, set.Env.Commit, set.Env.Clients, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// summary is one (workload, metric) pair over repeated sets.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median over the repeated sets
	Gated  bool      `json:"gated"`  // false: spread exceeds the bound, so the pair is informational
	Values []float64 `json:"values"`
	Seed2  float64   `json:"seed2"` // one set at the other seed
}

// baseline is what repeat writes and compare reads.
type baseline struct {
	Env       environment                   `json:"env"`
	Seeds     [2]int64                      `json:"seeds"`
	Seconds   int                           `json:"seconds"`
	Sets      int                           `json:"sets"`
	Workloads map[string]map[string]summary `json:"workloads"`
}

// comparedMetrics lists the metrics compare looks at: the gated end-to-end ones
// plus the read and write medians where a workload has them.
func comparedMetrics() []metricSpec {
	out := append([]metricSpec(nil), endToEnd...)
	for _, m := range informational {
		if m.bound > 0 {
			out = append(out, m)
		}
	}
	return out
}

// cmdRepeat runs n full sets at seed 1 and one at seed 2, prints median,
// quartiles and spread per (workload, metric), and writes the baseline. A
// pair whose spread exceeds its bound is recorded as not gated: it is
// informational, and never given a looser bound.
func cmdRepeat(args []string) int {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	n := fs.Int("n", 5, "sets to run at seed 1")
	seconds := fs.Int("seconds", runSeconds, "measured window per workload")
	out := fs.String("out", filepath.Join("benchmark", "baseline.json"), "where to write the baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base := baseline{Env: readEnvironment(), Seeds: [2]int64{1, 2}, Seconds: *seconds, Sets: *n, Workloads: map[string]map[string]summary{}}
	values := map[string]map[string][]float64{}
	var other *resultSet
	for i := 0; i <= *n; i++ {
		seed := base.Seeds[0]
		if i == *n {
			seed = base.Seeds[1]
		}
		set, err := runSet(false, seed, *seconds, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark repeat: %v\n", err)
			return 1
		}
		if i == *n {
			other = set
			break
		}
		for _, r := range set.Runs {
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			}
		}
	}
	fmt.Printf("\n%-16s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, r := range other.Runs {
		base.Workloads[r.Workload] = map[string]summary{}
		for _, m := range comparedMetrics() {
			xs := values[r.Workload][m.name]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			s := summary{Unit: m.unit, Better: m.better, Bound: m.bound, Median: q2, Q1: q1, Q3: q3, Spread: spread(xs), Values: xs, Seed2: r.Metrics[m.name].Value}
			s.Gated = s.Spread <= s.Bound
			base.Workloads[r.Workload][m.name] = s
			note := ""
			if !s.Gated {
				note = "  informational: spread exceeds bound"
			}
			fmt.Printf("%-16s %-16s %12.4f %12.4f %12.4f %7.2f%% %5.0f%%%s\n", r.Workload, m.name, q1, q2, q3, 100*s.Spread, 100*m.bound, note)
		}
	}
	if err := writeJSON(*out, base); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark repeat: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	return 0
}

// point is one side of a comparison.
type point struct {
	value, spread float64
	ok            bool
}

// loadPoints reads a results file (from run) or a baseline (from repeat)
// into workload → metric → point, plus the failed request count per workload.
func loadPoints(path string) (map[string]map[string]point, map[string]int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	points, failed := map[string]map[string]point{}, map[string]int{}
	var base baseline
	if err := json.Unmarshal(b, &base); err == nil && base.Workloads != nil {
		for w, ms := range base.Workloads {
			points[w] = map[string]point{}
			for name, s := range ms {
				points[w][name] = point{s.Median, s.Spread, true}
			}
		}
		return points, failed, nil
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil || set.Runs == nil {
		return nil, nil, fmt.Errorf("%s is neither a results file nor a baseline", path)
	}
	for _, r := range set.Runs {
		points[r.Workload] = map[string]point{}
		failed[r.Workload] = r.Failed
		for name, m := range r.Metrics {
			points[r.Workload][name] = point{m.Value, 0, true}
		}
	}
	return points, failed, nil
}

// verdict classifies new against old. worse is the change as a share of
// old, signed so that positive is worse.
func verdict(m metricSpec, old, new point) (worse float64, v string) {
	worse = (new.value - old.value) / old.value
	if m.better == "higher" {
		worse = -worse
	}
	switch {
	case max(old.spread, new.spread) > m.bound:
		return worse, "unresolved"
	case worse > m.bound:
		return worse, "regressed"
	case worse < -m.bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// cmdCompare prints one row per (workload, end-to-end metric) and exits
// non-zero on any regression or any increase in failed requests.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare OLD.json NEW.json")
		return 2
	}
	old, oldFailed, err := loadPoints(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	new, newFailed, err := loadPoints(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-16s %-16s %12s %12s %16s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range comparedMetrics() {
			o, n := old[w.name][m.name], new[w.name][m.name]
			if !o.ok || !n.ok {
				continue
			}
			_, v := verdict(m, o, n)
			if v == "regressed" {
				bad++
			}
			fmt.Printf("%-16s %-16s %12.4f %12.4f %7.3f of %-6.4g %5.0f%%  %s\n", w.name, m.name, o.value, n.value, n.value/o.value, o.value, 100*m.bound, v)
		}
		if newFailed[w.name] > oldFailed[w.name] {
			bad++
			fmt.Printf("%-16s %-16s %12d %12d %16s %6s  regressed\n", w.name, "failed", oldFailed[w.name], newFailed[w.name], "", "0")
		}
	}
	if bad > 0 {
		fmt.Printf("%d regression(s)\n", bad)
		return 1
	}
	return 0
}
