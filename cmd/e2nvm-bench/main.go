// Command e2nvm-bench regenerates the paper's tables and figures on the
// simulated PCM device.
//
// Usage:
//
//	e2nvm-bench -list
//	e2nvm-bench -exp fig10 [-scale 1.0] [-seed 42]
//	e2nvm-bench -all [-scale 0.25]
//
// Each experiment prints the rows/series the corresponding paper figure
// plots, plus notes stating the expected shape. See EXPERIMENTS.md for the
// paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"e2nvm/internal/experiments"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list experiment ids and exit")
		exp    = flag.String("exp", "", "experiment id to run (e.g. fig10)")
		all    = flag.Bool("all", false, "run every experiment")
		scale  = flag.Float64("scale", 1.0, "workload scale factor (1.0 = reference size)")
		seed   = flag.Int64("seed", 42, "random seed")
		asJSON = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	cfg := experiments.RunConfig{Scale: *scale, Seed: *seed}
	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *exp != "":
		ids = []string{*exp}
	default:
		fmt.Fprintln(os.Stderr, "usage: e2nvm-bench -list | -exp <id> | -all  (see -h)")
		os.Exit(2)
	}
	for _, id := range ids {
		r, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(1)
		}
		start := time.Now()
		res, err := r(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		if *asJSON {
			doc, err := res.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: encoding: %v\n", id, err)
				os.Exit(1)
			}
			os.Stdout.Write(doc)
			fmt.Println()
			continue
		}
		res.Print(os.Stdout)
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
