// Command hugebench regenerates the paper's evaluation tables and figures
// (Section 7) on synthetic stand-in datasets.
//
// Usage:
//
//	hugebench -exp table1            # one experiment
//	hugebench -exp all -latency      # the whole suite with modelled latency
//	hugebench -exp fig6 -queries q1,q2 -datasets EU,LJ
//
// Experiments: table1 fig5 fig6 table4 fig7 fig8 table5 fig9 fig10 table6
// fig11 all. The serving benchmark lives in bench/ (go run -C bench .).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	var (
		expName  = flag.String("exp", "table1", "experiment to run (or 'all')")
		scale    = flag.Int("scale", 1, "dataset scale multiplier")
		tiny     = flag.Bool("tiny", false, "use miniature datasets (seconds per experiment)")
		machines = flag.Int("machines", 4, "simulated machines")
		workers  = flag.Int("workers", 2, "workers per machine")
		latency  = flag.Bool("latency", false, "inject modelled network latency")
		queries  = flag.String("queries", "", "fig6: comma-separated queries (default q1..q6)")
		datasets = flag.String("datasets", "", "fig6: comma-separated datasets (default EU,LJ,OR,UK,FS)")
	)
	flag.Parse()

	var e *exp.Env
	if *tiny {
		e = exp.TinyEnv()
	} else {
		e = exp.DefaultEnv()
		e.Scale = *scale
	}
	e.K = *machines
	e.Workers = *workers
	e.Latency = *latency

	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	qs, ds := split(*queries), split(*datasets)

	var tables []exp.Table
	switch *expName {
	case "table1":
		tables = []exp.Table{e.Table1()}
	case "fig5":
		tables = []exp.Table{e.Fig5()}
	case "fig6":
		tables = []exp.Table{e.Fig6(qs, ds)}
	case "table4":
		tables = []exp.Table{e.Table4()}
	case "fig7":
		tables = []exp.Table{e.Fig7()}
	case "fig8":
		tables = []exp.Table{e.Fig8()}
	case "table5":
		tables = []exp.Table{e.Table5()}
	case "fig9":
		tables = []exp.Table{e.Fig9()}
	case "fig10":
		tables = []exp.Table{e.Fig10()}
	case "table6":
		tables = []exp.Table{e.Table6()}
	case "fig11":
		tables = []exp.Table{e.Fig11()}
	case "all":
		e.All(qs, ds, func(t exp.Table) { fmt.Println(t.String()) })
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q (the serving benchmark is `go run -C bench .`)\n", *expName)
		os.Exit(2)
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
}
