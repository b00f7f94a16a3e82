// Command crosse-experiments runs the measurement study
// (internal/experiments): the functional reproduction of the paper's
// worked examples (E1) plus the pipeline-level performance experiments
// E4-E8 and E11. Per-layer measurements are the go test -bench families.
//
// Usage:
//
//	crosse-experiments             # run everything, full parameter sweeps
//	crosse-experiments -quick      # shrunken sweeps (seconds, not minutes)
//	crosse-experiments -exp E4,E5  # run a subset
//	crosse-experiments -list       # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"crosse/internal/experiments"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "shrink parameter sweeps")
		exp   = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	if *exp == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Find(strings.ToUpper(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
