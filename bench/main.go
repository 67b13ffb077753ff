// Command bench is the repository's benchmark: four named workloads
// driven through the e2nvm facade at the paper's geometry, every read
// verified, end-to-end metrics from an untraced run and per-layer metrics
// from a separate traced run. See README.md in this directory.
//
//	go run ./bench                       all workloads, untraced + traced
//	go run ./bench -workload put-1c      one workload
//	go run ./bench -trace 1 -trace-out rf2.spans.jsonl -workload durable-rf2
//	go run ./bench -out a.bench.json ; go run ./bench -out b.bench.json
//	go run ./bench -compare a.bench.json b.bench.json
//
// With -workload, -trace 0|1 and -seconds all given it runs one pass and
// ends its output with the one-line JSON result BENCHMARK.json's driver
// reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// Provenance is recorded in every result.
type Provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

// WorkloadResult is one workload's outcome.
type WorkloadResult struct {
	Workload string `json:"workload"`
	// Skipped is why the workload did not run on this host; its metrics
	// are then absent, never estimated.
	Skipped    string   `json:"skipped,omitempty"`
	TapeHash   string   `json:"tape_hash,omitempty"`
	TimedOps   int      `json:"timed_ops,omitempty"`
	TracedHash string   `json:"traced_tape_hash,omitempty"`
	TracedOps  int      `json:"traced_timed_ops,omitempty"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailFrac   float64  `json:"fail_frac"`
	EndToEnd   []Metric `json:"end_to_end,omitempty"`
	PerLayer   []Metric `json:"per_layer,omitempty"`
}

// Report is what -out writes and -compare reads.
type Report struct {
	Provenance Provenance       `json:"provenance"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// options are the run's settings after flag parsing.
type options struct {
	geom     geometry
	seed     int64
	seconds  float64
	quick    bool
	untraced bool
	traced   bool
	traceOut string
}

// quickDivisor shortens every tape for smoke runs; the code paths are the
// same.
const quickDivisor = 20

// tracedDivisor is how much shorter the traced run's tape is.
const tracedDivisor = 4

func (o options) timedOps(sp spec) int {
	n := float64(sp.opsPerSecond) * o.seconds
	if o.quick {
		n /= quickDivisor
	}
	return max(int(n), numSlices*sp.clients)
}

// deadline is when a timed phase stops issuing: far beyond the nominal
// length, but short of a supervisor's patience.
func (o options) deadline() time.Duration {
	return time.Duration(max(8*o.seconds, 30) * float64(time.Second))
}

// runWorkload runs one workload's untraced and/or traced pass.
func runWorkload(sp spec, o options) (WorkloadResult, error) {
	res := WorkloadResult{Workload: sp.name}
	if sp.clients > runtime.NumCPU() {
		res.Skipped = fmt.Sprintf("needs %d CPUs for %d clients, host has %d", sp.clients, sp.clients, runtime.NumCPU())
		return res, nil
	}
	if o.untraced {
		t, err := genTape(sp, o.geom, o.seed, o.timedOps(sp))
		if err != nil {
			return res, err
		}
		ms, err := measure(sp, o.geom, o.seed, t, o.deadline())
		if err != nil {
			return res, err
		}
		res.TapeHash, res.TimedOps = t.hash, t.timedOps()
		res.Attempted += ms.attempted
		res.Failed += ms.failed
		res.EndToEnd = endToEnd(sp, ms)
	}
	if o.traced {
		t, err := genTape(sp, o.geom, o.seed, o.timedOps(sp)/tracedDivisor)
		if err != nil {
			return res, err
		}
		layers, attempted, failed, err := traced(sp, o.geom, o.seed, t, o.deadline(), o.traceOut)
		if err != nil {
			return res, err
		}
		res.TracedHash, res.TracedOps = t.hash, t.timedOps()
		res.Attempted += attempted
		res.Failed += failed
		res.PerLayer = layers
	}
	res.FailFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printReport writes every metric of every workload by name with its
// unit: the median across slices, the inter-quartile range, the samples.
func printReport(w io.Writer, r Report) {
	p := r.Provenance
	fmt.Fprintf(w, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g quick=%v\n",
		p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.Seed, p.Seconds, p.Quick)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s ==\n", wr.Workload)
		if wr.Skipped != "" {
			fmt.Fprintf(w, "skipped: %s\n", wr.Skipped)
			continue
		}
		if wr.TapeHash != "" {
			fmt.Fprintf(w, "tape %s, %d timed ops\n", wr.TapeHash, wr.TimedOps)
		}
		if wr.TracedHash != "" {
			fmt.Fprintf(w, "traced tape %s, %d timed ops\n", wr.TracedHash, wr.TracedOps)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tvalue\tunit\tiqr\tn")
		for _, m := range append(append([]Metric(nil), wr.EndToEnd...), wr.PerLayer...) {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.4g\t%d\n", m.Name, m.Value, m.Unit, m.IQR(), m.N)
		}
		fmt.Fprintf(tw, "fail_frac\t%g\tratio\t\t%d\n", wr.FailFrac, wr.Attempted)
		if err := tw.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
}

// driverLine is the contract's last line of output: every metric of the
// pass that ran, by name. The contract wants every listed metric on every
// workload, so a per-layer metric of a layer that does no work here is
// written as 0; the report above and -out leave it absent.
func driverLine(wr WorkloadResult, defs []metricDef, got []Metric) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	have := make(map[string]float64, len(got))
	for _, m := range got {
		have[m.Name] = m.Value
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.name] = mv{Value: have[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	return string(b), err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errRegressed makes -compare exit non-zero.
var errRegressed = fmt.Errorf("at least one metric regressed beyond its bound")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the tapes, the seed content and the model")
	seconds := fs.Float64("seconds", 10, "nominal length of each timed phase; sets the op counts")
	traceMode := fs.String("trace", "both", "0 = untraced end-to-end run, 1 = traced per-layer run, both")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file (JSON lines)")
	quick := fs.Bool("quick", false, "1/20-length tapes: a smoke run, not a measurement")
	outPath := fs.String("out", "", "write the full report as JSON")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	bounds := fs.String("bounds", "BENCHMARK.json", "with -compare: the file holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two report files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1), *bounds)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o := options{
		geom: paperGeometry, seed: *seed, seconds: *seconds, quick: *quick, traceOut: *traceOut,
		untraced: *traceMode != "1", traced: *traceMode != "0",
	}
	switch *traceMode {
	case "0", "1", "both":
	default:
		return fmt.Errorf("-trace wants 0, 1 or both")
	}
	var specs []spec
	if *workload == "all" {
		specs = workloads
	} else if sp, ok := findWorkload(*workload); ok {
		specs = []spec{sp}
	} else {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	rep := Report{Provenance: Provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(), Seed: *seed, Seconds: *seconds, Quick: *quick,
	}}
	for _, sp := range specs {
		wr, err := runWorkload(sp, o)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	printReport(stdout, rep)
	if *outPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}

	// one workload, one pass: end with the driver's result line
	if len(specs) == 1 && *traceMode != "both" {
		wr := rep.Workloads[0]
		if wr.Skipped != "" {
			return fmt.Errorf("%s skipped: %s", wr.Workload, wr.Skipped)
		}
		defs, got := endToEndDefs, wr.EndToEnd
		if o.traced {
			defs, got = perLayerDefs, wr.PerLayer
		}
		if !o.traced && len(got) != len(defs) {
			return fmt.Errorf("%s: %d of %d end-to-end metrics have too few samples at -seconds %g", wr.Workload, len(got), len(defs), *seconds)
		}
		line, err := driverLine(wr, defs, got)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}
