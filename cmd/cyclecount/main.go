// Command cyclecount estimates (or exactly counts) cycles in a graph
// presented as an adjacency-list stream, using any algorithm from the
// library.
//
// Usage:
//
//	cyclecount -algo twopass-triangle -prob 0.05 -copies 9 graph.edges
//	cyclecount -algo twopass-triangle -prob 0.05 -copies 9 -parallel graph.edges
//	cyclecount -algo twopass-fourcycle -size 2000 -order random stream.txt
//	cyclecount -algo exact -len 5 graph.edges
//	cyclecount -model arbitrary -algo arb-threepass-fourcycle -prob 0.3 g.edges
//	cyclecount -compare graph.edges      # run every algorithm side by side
//
// The input is an edge-list file ("u v" per line) streamed in the chosen
// order, or — with -stream — a ready-made adjacency-list stream file.
// Vertex ids must lie in [0, 2^32-1]. -parallel runs up to GOMAXPROCS
// copies at once, each reading the stream itself; the result is identical
// to the sequential run.
//
// With -model arbitrary the run uses the arbitrary-order edge streaming
// model (see adjstream.ModelArbitrary): an edge-list input is replayed in
// file order (as genstream -format arbstream emits), and a -stream input is
// converted by first edge occurrence. The -algo roster is then the arb-*
// family (adjstream.AlgorithmsForModel). -copy-range and -snapshot split a
// run of either model.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage or invalid options
// (adjstream.ErrInvalidOptions / ErrUnknownAlgorithm), 3 run canceled by
// -timeout or an interrupt (adjstream.ErrCanceled).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"adjstream"
	"adjstream/internal/telemetry"
)

// exitCode maps an estimation error onto the documented exit codes via the
// library's sentinel taxonomy.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, adjstream.ErrInvalidOptions), errors.Is(err, adjstream.ErrUnknownAlgorithm):
		return 2
	case errors.Is(err, adjstream.ErrCanceled):
		return 3
	default:
		return 1
	}
}

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
	fs := flag.NewFlagSet("cyclecount", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", string(adjstream.AlgoTwoPassTriangle), "algorithm: twopass-triangle, threepass-triangle, naive-twopass, onepass-triangle, wedge-sampler, twopass-fourcycle, exact; with -model arbitrary: arb-twopass-wedge, arb-buriol, arb-threepass-fourcycle, arb-nearopt-fourcycle")
	model := fs.String("model", string(adjstream.ModelAdjacencyList), "streaming model: adjacency-list or arbitrary (edge-list input replayed in file order)")
	size := fs.Int("size", 0, "bottom-k edge sample size m'")
	prob := fs.Float64("prob", 0, "per-edge sampling probability (alternative to -size)")
	pairCap := fs.Int("paircap", 0, "candidate pair/wedge reservoir cap (0 = default)")
	cycleLen := fs.Int("len", 3, "cycle length for -algo exact")
	copies := fs.Int("copies", 1, "independent copies, median-combined")
	parallel := fs.Bool("parallel", false, "run up to GOMAXPROCS copies at once")
	copyRange := fs.String("copy-range", "", "run only copies [lo:hi) of the -copies run (requires -snapshot)")
	snapshot := fs.String("snapshot", "", "write per-copy snapshots to this file instead of printing an estimate; merge shards with adjmerge")
	seed := fs.Uint64("seed", 1, "seed for all randomness")
	order := fs.String("order", "sorted", "stream order for edge-list input: sorted or random")
	isStream := fs.Bool("stream", false, "input is an adjacency-list stream file (text or adjC columnar; columnar files are memory-mapped), not an edge list")
	compare := fs.Bool("compare", false, "run every algorithm at the given budget and tabulate")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	listen := fs.String("listen", "", "serve live telemetry (expvar + pprof) on this address, e.g. localhost:6060")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit); exits 3 on timeout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cyclecount [flags] <input-file>")
		fs.Usage()
		return 2
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "cyclecount:", err)
		return 1
	}
	defer stopProfiles()
	if *listen != "" {
		ln, err := telemetry.Listen(*listen)
		if err != nil {
			fmt.Fprintln(stderr, "cyclecount:", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "cyclecount: telemetry on http://%s/debug/vars (pprof under /debug/pprof/)\n", ln.Addr())
	}

	arbitraryModel := adjstream.Model(*model) == adjstream.ModelArbitrary
	if arbitraryModel && *compare {
		fmt.Fprintln(stderr, "cyclecount: -compare runs the adjacency-list roster; drop -model arbitrary")
		return 2
	}
	// An edge-list input under the arbitrary model IS the stream: replay it
	// in file order rather than routing it through an adjacency-list order.
	arbFile := arbitraryModel && !*isStream
	var (
		s           *adjstream.Stream
		as          *adjstream.ArbitraryStream
		closeStream func() error
	)
	if arbFile {
		if *order != "sorted" {
			fmt.Fprintln(stderr, "cyclecount: -order selects an adjacency-list order; an arbitrary-model edge list is replayed in file order")
			return 2
		}
		as, err = loadArbitraryStream(fs.Arg(0))
		closeStream = func() error { return nil }
	} else {
		s, closeStream, err = loadStream(fs.Arg(0), *isStream, *order, *seed)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cyclecount:", err)
		return 1
	}
	defer closeStream()

	// The run context carries -timeout and Ctrl-C, so a too-slow pass is
	// abandoned at the next chunk boundary instead of running to the end.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *compare {
		return runCompare(ctx, s, *size, *prob, *pairCap, *copies, *seed, stdout, stderr)
	}

	opts := adjstream.Options{
		Algorithm:  adjstream.Algorithm(*algo),
		SampleSize: *size,
		SampleProb: *prob,
		PairCap:    *pairCap,
		CycleLen:   *cycleLen,
		Copies:     *copies,
		Parallel:   *parallel,
		Seed:       *seed,
		Model:      adjstream.Model(*model),
	}

	if *snapshot != "" {
		return runShard(ctx, s, as, opts, *copyRange, *snapshot, stdout, stderr)
	}
	if *copyRange != "" {
		fmt.Fprintln(stderr, "cyclecount: -copy-range requires -snapshot (a shard has no median to print)")
		return 2
	}

	var res adjstream.Result
	if arbFile {
		res, err = adjstream.EstimateArbitraryContext(ctx, as, opts)
	} else {
		res, err = adjstream.EstimateContext(ctx, s, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cyclecount:", err)
		return exitCode(err)
	}
	fmt.Fprintf(stdout, "algorithm:   %s\n", *algo)
	if *model != string(adjstream.ModelAdjacencyList) {
		fmt.Fprintf(stdout, "model:       %s\n", *model)
	}
	fmt.Fprintf(stdout, "edges (m):   %d\n", res.M)
	fmt.Fprintf(stdout, "passes:      %d\n", res.Passes)
	fmt.Fprintf(stdout, "copies:      %d\n", res.Copies)
	fmt.Fprintf(stdout, "space:       %d words\n", res.SpaceWords)
	fmt.Fprintf(stdout, "estimate:    %.2f\n", res.Estimate)
	if res.Driver != "" {
		fmt.Fprintf(stdout, "driver:      %s\n", res.Driver)
	}
	return 0
}

func loadStream(path string, isStream bool, order string, seed uint64) (*adjstream.Stream, func() error, error) {
	if isStream {
		return adjstream.OpenStreamFile(path)
	}
	noop := func() error { return nil }
	g, err := adjstream.ReadEdgeListFile(path)
	if err != nil {
		return nil, nil, err
	}
	switch order {
	case "sorted":
		return adjstream.SortedStream(g), noop, nil
	case "random":
		return adjstream.RandomStream(g, seed), noop, nil
	default:
		return nil, nil, fmt.Errorf("unknown order %q", order)
	}
}

// loadArbitraryStream reads an edge-list file as an arbitrary-order stream,
// preserving the file's edge order.
func loadArbitraryStream(path string) (*adjstream.ArbitraryStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return adjstream.ReadArbitraryStream(f)
}

// parseCopyRange parses "lo:hi" into the half-open copy range [lo, hi).
func parseCopyRange(spec string, copies int) (lo, hi int, err error) {
	if spec == "" {
		return 0, copies, nil
	}
	if _, err := fmt.Sscanf(spec, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("copy range %q is not lo:hi", spec)
	}
	return lo, hi, nil
}

// runShard executes the copy range of a split run over s, or over as when
// it is set (an arbitrary-model edge list in file order), and writes the
// snapshot set; adjmerge combines shard files into the single-run output.
func runShard(ctx context.Context, s *adjstream.Stream, as *adjstream.ArbitraryStream, opts adjstream.Options, copyRange, path string, stdout, stderr io.Writer) int {
	lo, hi, err := parseCopyRange(copyRange, opts.Copies)
	if err != nil {
		fmt.Fprintln(stderr, "cyclecount:", err)
		return 2
	}
	var snaps []adjstream.CopySnapshot
	if as != nil {
		snaps, err = adjstream.EstimateArbitraryShardContext(ctx, as, opts, lo, hi)
	} else {
		snaps, err = adjstream.EstimateShardContext(ctx, s, opts, lo, hi)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cyclecount:", err)
		return exitCode(err)
	}
	if err := adjstream.WriteSnapshotFile(path, lo, snaps); err != nil {
		fmt.Fprintln(stderr, "cyclecount:", err)
		return 1
	}
	fmt.Fprintf(stdout, "snapshot:    %s (copies [%d:%d) of %d)\n", path, lo, hi, opts.Copies)
	return 0
}

func runCompare(ctx context.Context, s *adjstream.Stream, size int, prob float64, pairCap, copies int, seed uint64, stdout, stderr io.Writer) int {
	// Sensible default budget when none is given.
	if size == 0 && prob == 0 {
		size = int(s.M()/4) + 1
	}
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\testimate\tpasses\tspace (words)")
	for _, a := range adjstream.Algorithms() {
		opts := adjstream.Options{
			Algorithm:  a,
			SampleSize: size,
			SampleProb: prob,
			PairCap:    pairCap,
			Copies:     copies,
			Seed:       seed,
		}
		if a == adjstream.AlgoExact {
			opts.SampleSize, opts.SampleProb = 0, 0
		}
		if a == adjstream.AlgoAdaptiveTriangle {
			// The adaptive estimator budgets by sample size, not rate.
			opts.SampleProb = 0
			if opts.SampleSize == 0 {
				opts.SampleSize = int(s.M())
			}
		}
		res, err := adjstream.EstimateContext(ctx, s, opts)
		if err != nil {
			fmt.Fprintln(stderr, "cyclecount:", a, err)
			return exitCode(err)
		}
		fmt.Fprintf(w, "%s\t%.1f\t%d\t%d\n", a, res.Estimate, res.Passes, res.SpaceWords)
	}
	w.Flush()
	return 0
}
