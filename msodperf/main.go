// Command msodperf is the decision benchmark of the msod repository. It
// runs one named workload against the code of the current checkout,
// checks every answer against an independent model of the §4.2
// algorithm, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of its standard output.
//
// Run it from the repository root through the wrapper, which builds the
// daemons and this program from source first:
//
//	bash msodperf/run.sh --workload embedded-history --seed 1 --seconds 10 --trace 0
//	bash msodperf/run.sh repeat --workload cluster-mixed --runs 10 --out a.json
//	bash msodperf/run.sh compare a.json b.json
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// Workload names.
const (
	wlEmbedded = "embedded-history"
	wlCluster  = "cluster-mixed"
	wlDurable  = "durable-workflow"
)

// Clients is the closed-loop client count: one per CPU of the 2-CPU
// reference host, each owning disjoint context instances.
const clients = 2

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout the daemons were built from
	bin      string // directory holding msodd and msodgw
	work     string // scratch directory for this run, removed at exit
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"decide_p50_us", "us"},
	{"decide_p99_us", "us"},
	{"cpu_us_per_decision", "us"},
	{"allocs_per_decision", "count"},
	{"bytes_per_decision", "B"},
	{"heap_live_bytes", "B"},
}

// perLayer lists the per-layer metrics with their units. A layer that
// does not run in a workload reports 0 there (README.md lists where
// each one runs).
var perLayer = []struct{ name, unit string }{
	{"client.rtt_us", "us"},
	{"client.cpu_us_per_decision", "us"},
	{"cluster.cpu_us_per_decision", "us"},
	{"cluster.shard_calls_per_decision", "count"},
	{"cluster.retries", "count"},
	{"cluster.allocs_per_decision", "count"},
	{"cluster.heap_live_bytes", "B"},
	{"server.cpu_us_per_decision", "us"},
	{"server.decide_us", "us"},
	{"server.stage.cvs_us", "us"},
	{"server.stage.rbac_us", "us"},
	{"server.stage.msod_self_us", "us"},
	{"server.stage.store_us", "us"},
	{"server.stage.audit_us", "us"},
	{"server.stage.other_us", "us"},
	{"server.allocs_per_decision", "count"},
	{"server.bytes_per_decision", "B"},
	{"server.heap_live_bytes", "B"},
	{"server.gc_pause_us_per_decision", "us"},
	{"budget.remainder_us", "us"},
	{"pdp.decide_us", "us"},
	{"pdp.self_us_per_decision", "us"},
	{"adi.calls_per_decision", "count"},
	{"adi.read_us_per_decision", "us"},
	{"adi.write_us_per_decision", "us"},
	{"adi.ingest_records_per_s", "1/s"},
	{"runtime.gc_cpu_us_per_decision", "us"},
	{"disk.write_bytes_per_decision", "B"},
	{"adi.recovery_s", "s"},
}

// outcome is what a workload hands back: the counts, the metric
// values by name (both sets; the printer picks one), and the record
// printed before the result.
type outcome struct {
	attempted, failed int
	mismatches        []string
	values            map[string]float64
	record            map[string]any
}

func (o *outcome) mismatch(format string, args ...any) {
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "repeat":
			os.Exit(repeatMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("msodperf", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join([]string{wlEmbedded, wlCluster, wlDurable}, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout")
	fs.StringVar(&cfg.bin, "bin", "", "directory holding the msodd and msodgw binaries (default <root>/.bench_build/bin)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "msodperf: -seconds must be positive")
		return 2
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msodperf:", err)
		return 2
	}
	cfg.root = root
	if cfg.bin == "" {
		cfg.bin = filepath.Join(root, ".bench_build", "bin")
	}

	var run func(*config) (*outcome, error)
	switch cfg.workload {
	case wlEmbedded:
		run = runEmbedded
	case wlCluster:
		run = runCluster
	case wlDurable:
		run = runDurable
	default:
		fmt.Fprintf(os.Stderr, "msodperf: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err := checkModel(); err != nil {
		fmt.Fprintln(os.Stderr, "msodperf: model self-check:", err)
		return 1
	}

	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "msodperf:", err)
		return 1
	}
	cfg.work = work
	defer cleanup()
	atCleanup(func() { os.RemoveAll(work) })
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	out, err := run(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msodperf:", err)
		return 1
	}
	return report(&cfg, out)
}

// report prints the run record and the result line. A run whose
// answers disagree with the model exits non-zero.
func report(cfg *config, out *outcome) int {
	rec := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"attempted":  out.attempted,
		"failed":     out.failed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     gitCommit(cfg.root),
		"clients":    clients,
	}
	for k, v := range out.record {
		rec[k] = v
	}
	// The untraced numbers of a traced run are printed in its record, so
	// the tracing overhead is their difference to an untraced run.
	e2e := map[string]float64{}
	for _, m := range endToEnd {
		e2e[m.name] = out.values[m.name]
	}
	rec["end_to_end"] = e2e
	if len(out.mismatches) > 0 {
		rec["mismatches"] = out.mismatches
	}
	line, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Println(string(line))

	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	res := result{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, m := range set {
		res.Metrics[m.name] = metric{Value: out.values[m.name], Unit: m.unit}
	}
	if !res.Correct {
		for _, m := range out.mismatches {
			fmt.Fprintln(os.Stderr, "msodperf: MISMATCH:", m)
		}
		return 1
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "msodperf: no operation attempted")
		return 1
	}
	summary(cfg, res)
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

func summary(cfg *config, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "msodperf: %s seed=%d attempted=%d failed=%d\n", cfg.workload, cfg.seed, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.3f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// gitCommit reads the checked-out commit from .git with the standard
// library, so it works under go run and without a git binary.
func gitCommit(root string) string {
	dir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
