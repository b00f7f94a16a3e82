// Command benchmark is the request-level yardstick of this repository: it
// builds a seeded multi-user platform, mounts the real v1 REST handler on a
// loopback listener and drives it closed-loop with two clients, checking
// every answer against the enrichment pipeline called directly.
//
// The driver contract (see BENCHMARK.json at the repository root):
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//
// runs one workload in this process and prints one JSON object as the last
// line of standard output. The subcommands run, trace, repeat and compare
// wrap that for people; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run", "trace":
			os.Exit(cmdRun(os.Args[1] == "trace", os.Args[2:]))
		case "repeat":
			os.Exit(cmdRepeat(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		}
	}
	os.Exit(cmdWorkload(os.Args[1:]))
}

// cmdWorkload is the driver contract: one workload, one process, one JSON
// line at the end.
func cmdWorkload(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "request generator seed")
	seconds := fs.Int("seconds", runSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
	out := fs.String("out", "", "also write the full result, with shapes and sample counts, to this file")
	spans := fs.String("spans", "", "traced run: write the spans to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload W --seed N --seconds S --trace 0|1\n       benchmark run|trace|repeat|compare ...\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	var res *result
	var err error
	gated := endToEnd
	if *trace == 1 {
		gated = perLayer
		res, err = traceWorkload(w, *seed, *seconds, *spans)
	} else {
		res, err = measureWorkload(w, *seed, *seconds, setupRepeats)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", w.name, err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark %s: write %s: %v\n", w.name, *out, err)
			return 1
		}
	}
	printResult(res)

	// The contract's last line: exactly the gated metrics of this mode.
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]metricValue{}}
	for _, m := range gated {
		v, ok := res.Metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark %s: metric %s was not measured\n", w.name, m.name)
			return 1
		}
		line.Metrics[m.name] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// printResult prints every metric by name with its unit.
func printResult(res *result) {
	fmt.Printf("workload %s  seed %d  %d s  attempted %d  failed %d\n", res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-28s %14.4f %-6s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%d", m.Samples)
		}
		for _, spec := range perLayer {
			if res.Traced && spec.name == n {
				fmt.Printf("  -> %s", spec.moves)
			}
		}
		fmt.Println()
	}
	names = names[:0]
	for n := range res.Shapes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  shape %-26s p50 %10.4f ms     n=%d\n", n, res.Shapes[n].P50Ms, res.Shapes[n].Samples)
	}
	names = names[:0]
	for n := range res.Shares {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  layer %-26s %6.1f %% of rest_handler_us (self time)\n", n, 100*res.Shares[n])
	}
}
