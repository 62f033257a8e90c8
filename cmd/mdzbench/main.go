// Command mdzbench regenerates the paper's evaluation tables and figures on
// the synthesized dataset analogs.
//
// Usage:
//
//	mdzbench -exp fig12               # one experiment
//	mdzbench -exp all                 # everything (slow)
//	mdzbench -list                    # show experiment ids
//	mdzbench -exp fig13 -datascale 0.5 # smaller datasets
//	mdzbench -exp tab5 -csv           # machine-readable output
//
// Throughput and per-layer timing live in the performance harness
// (internal/bench/perf, run with `bash internal/bench/perf/run.sh`).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mdz/mdz/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (fig3..fig16, tab2..tab7) or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	scale := flag.Float64("datascale", 1.0, "dataset scale factor")
	seed := flag.Int64("seed", 42, "dataset generation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	outDir := flag.String("out", "", "also write <exp>.csv files into this directory")
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Printf("%-6s %s\n", id, bench.Title(id))
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "mdzbench: -exp or -list required (see -h)")
		os.Exit(2)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments()
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		rep, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdzbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(rep.CSV())
		} else {
			if _, err := rep.WriteTo(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mdzbench:", err)
				os.Exit(1)
			}
			fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, id+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "mdzbench:", err)
				os.Exit(1)
			}
		}
	}
}
