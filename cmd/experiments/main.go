// Command experiments regenerates the paper's evaluation: every Table 1
// row (upper bounds measured at their space budgets, lower bounds as
// executable reductions with verified dichotomies), the Figure 1 gadget
// summary, the model comparison, and the DESIGN.md ablations. Output is
// Markdown (the source of EXPERIMENTS.md) or CSV.
//
// Usage:
//
//	experiments [-seed N] [-id T1.R6|F1|M1|A3|all] [-format markdown|csv] [-out FILE]
//	            [-driverstats] [-journal FILE] [-listen ADDR]
//
// Multi-copy runs always use the broadcast driver (one stream read per
// pass shared by all copies); -driverstats appends its counter table.
//
// -journal appends a JSONL run journal (provenance header, one record per
// grid point, per-experiment telemetry snapshot) that cmd/runjournal can
// validate and re-summarize. -listen serves the live telemetry registry
// over expvar plus net/http/pprof while the run executes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"adjstream/internal/exp"
	"adjstream/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// startProfiles begins CPU profiling and returns a stop function that ends
// it and writes a heap profile; empty paths disable the respective profile.
func startProfiles(cpuPath, memPath string, stderr io.Writer) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
		}
	}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "seed for all randomness")
	id := fs.String("id", "all", "experiment id (see DESIGN.md) or 'all'")
	format := fs.String("format", "markdown", "output format: markdown or csv")
	out := fs.String("out", "", "output file (default stdout)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	driverStats := fs.Bool("driverstats", false, "append the broadcast driver's counter table (stream reads, deliveries, chunks walked) after the experiments")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	journal := fs.String("journal", "", "append a JSONL run journal to this file (enables telemetry)")
	listen := fs.String("listen", "", "serve live telemetry (expvar + pprof) on this address, e.g. localhost:6060")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	defer stopProfiles()
	if *listen != "" {
		ln, err := telemetry.Listen(*listen)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "experiments: telemetry on http://%s/debug/vars (pprof under /debug/pprof/)\n", ln.Addr())
	}
	if *journal != "" {
		telemetry.Enable()
		f, err := os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		exp.SetJournal(f)
		defer exp.SetJournal(nil)
	}

	if *list {
		for _, e := range exp.Registry() {
			fmt.Fprintln(stdout, e.ID)
		}
		return 0
	}
	tables, err := exp.Run(*id, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if *driverStats {
		tables = append(tables, exp.DriverReport())
	}
	for _, t := range tables {
		switch *format {
		case "markdown":
			fmt.Fprintln(w, t.Markdown())
		case "csv":
			fmt.Fprintln(w, t.CSV())
		default:
			fmt.Fprintf(stderr, "experiments: unknown format %q\n", *format)
			return 1
		}
	}
	return 0
}
