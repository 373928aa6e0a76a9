// Command irsbench regenerates the experiment tables recorded in
// EXPERIMENTS.md. Each experiment validates one complexity or correctness
// claim of the reproduced paper (or a labelled extension).
//
// Usage:
//
//	irsbench -list
//	irsbench -experiment E6
//	irsbench -experiment E1,E4,E10 -quick
//	irsbench -all
//	irsbench -experiment E1 -quick -json tables.json
//
// With -json the structured results (every table cell, plus run metadata)
// are additionally written to the given file, one JSON document per run.
// Serving-layer performance is not measured here: that is benchmark/'s
// job (see benchmark/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/irsgo/irs/internal/bench"
)

// jsonResult is the -json document: run metadata plus every experiment's
// tables verbatim.
type jsonResult struct {
	Mode        string           `json:"mode"` // "quick" or "full"
	Seed        uint64           `json:"seed"`
	GeneratedAt time.Time        `json:"generated_at"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID      string         `json:"id"`
	Title   string         `json:"title"`
	Seconds float64        `json:"seconds"`
	Tables  []*bench.Table `json:"tables"`
}

func main() {
	var (
		expFlag  = flag.String("experiment", "", "comma-separated experiment ids (e.g. E1,E6)")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "smaller datasets and measurement windows")
		seed     = flag.Uint64("seed", 1, "RNG seed; equal seeds give equal workloads")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonPath = flag.String("json", "", "also write structured results to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []bench.Experiment
	switch {
	case *all:
		todo = bench.All()
	case *expFlag != "":
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "irsbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("irsbench: %d experiment(s), %s mode, seed %d\n\n", len(todo), mode, *seed)
	out := jsonResult{Mode: mode, Seed: *seed, GeneratedAt: time.Now().UTC()}
	for _, e := range todo {
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irsbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, tab := range tables {
			tab.Fprint(os.Stdout)
		}
		elapsed := time.Since(start)
		fmt.Printf("(%s completed in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		out.Experiments = append(out.Experiments, jsonExperiment{
			ID: e.ID, Title: e.Title, Seconds: elapsed.Seconds(), Tables: tables,
		})
	}
	if *jsonPath != "" {
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "irsbench: encoding -json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "irsbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("irsbench: structured results written to %s\n", *jsonPath)
	}
}
