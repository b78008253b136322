package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runResult is one run as the repeat command keeps it.
type runResult struct {
	Seed   int64          `json:"seed"`
	Result result         `json:"result"`
	Record map[string]any `json:"record"`
}

// spread is a metric's summary over a set of runs: the median and the
// quartiles as Python's statistics.quantiles(values, n=4) gives them.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// IQRShare is (Q3-Q1)/Median.
	IQRShare float64 `json:"iqr_share"`
}

// repeatSet is the repeat command's output file.
type repeatSet struct {
	Workload string            `json:"workload"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Runs     []runResult       `json:"runs"`
	Summary  map[string]spread `json:"summary"`
	// EndToEnd summarises every run's end-to-end numbers, which traced
	// runs also print in their record: comparing a traced set with an
	// untraced one gives the tracing overhead.
	EndToEnd map[string]spread `json:"end_to_end"`
}

// quartiles matches Python's statistics.quantiles(data, n=4) with its
// default exclusive method.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

func summarise(vals map[string][]float64) map[string]spread {
	out := make(map[string]spread, len(vals))
	for name, v := range vals {
		q1, med, q3 := quartiles(v)
		s := spread{Median: med, Q1: q1, Q3: q3}
		if med != 0 {
			s.IQRShare = (q3 - q1) / med
		}
		out[name] = s
	}
	return out
}

// repeatMain runs one workload several times, each with its own seed,
// each in a fresh process, and prints every metric's median and
// quartiles.
func repeatMain(args []string) int {
	fs := flag.NewFlagSet("msodperf repeat", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Int64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := fs.Float64("seconds", 10, "window of each run in seconds")
	trace := fs.Int("trace", 0, "1 repeats traced runs")
	outPath := fs.String("out", "", "write the set to this JSON file")
	root := fs.String("root", ".", "repository checkout")
	bin := fs.String("bin", "", "directory holding msodd and msodgw")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "msodperf repeat:", err)
		return 1
	}
	set := repeatSet{Workload: *workload, Seconds: *seconds, Trace: *trace == 1}
	vals := map[string][]float64{}
	e2e := map[string][]float64{}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmdArgs := []string{"--workload", *workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'f', -1, 64), "--trace", strconv.Itoa(*trace), "--root", *root}
		if *bin != "" {
			cmdArgs = append(cmdArgs, "--bin", *bin)
		}
		cmd := exec.Command(self, cmdArgs...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "msodperf repeat: run with seed %d: %v\n", seed, err)
			return 1
		}
		rr, err := parseRun(stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msodperf repeat: run with seed %d: %v\n", seed, err)
			return 1
		}
		rr.Seed = seed
		set.Runs = append(set.Runs, rr)
		for name, m := range rr.Result.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		if ee, ok := rr.Record["end_to_end"].(map[string]any); ok {
			for name, v := range ee {
				if f, ok := v.(float64); ok {
					e2e[name] = append(e2e[name], f)
				}
			}
		}
	}
	set.Summary = summarise(vals)
	set.EndToEnd = summarise(e2e)
	printSummary(os.Stdout, &set)
	if *outPath != "" {
		b, _ := json.MarshalIndent(set, "", "  ")
		if err := os.WriteFile(*outPath, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "msodperf repeat:", err)
			return 1
		}
	}
	return 0
}

// parseRun reads a run's output: the record line, then the result as
// the last line.
func parseRun(stdout []byte) (runResult, error) {
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
	}
	var rr runResult
	if len(lines) < 2 {
		return rr, fmt.Errorf("expected a record and a result line, got %d lines", len(lines))
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rr.Result); err != nil {
		return rr, fmt.Errorf("result line: %w", err)
	}
	var rec struct {
		Record map[string]any `json:"record"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &rec); err != nil {
		return rr, fmt.Errorf("record line: %w", err)
	}
	rr.Record = rec.Record
	if !rr.Result.Correct {
		return rr, fmt.Errorf("run reported incorrect answers")
	}
	return rr, nil
}

func printSummary(w *os.File, set *repeatSet) {
	fmt.Fprintf(w, "%s: %d runs of %gs (trace=%v)\n", set.Workload, len(set.Runs), set.Seconds, set.Trace)
	names := make([]string, 0, len(set.Summary))
	for n := range set.Summary {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-36s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "iqr/med")
	for _, n := range names {
		s := set.Summary[n]
		fmt.Fprintf(w, "  %-36s %14.3f %14.3f %14.3f %7.1f%%\n", n, s.Median, s.Q1, s.Q3, 100*s.IQRShare)
	}
}

// benchSpec is the part of BENCHMARK.json the compare command reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets made by repeat. A metric is flagged
// only when the second set's median is worse than the first's by more
// than both the metric's bound and the sets' own spread.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("msodperf compare", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: msodperf compare [--root dir] a.json b.json")
		return 2
	}
	var sets [2]repeatSet
	for i := range sets {
		b, err := os.ReadFile(fs.Arg(i))
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "msodperf compare: %s: %v\n", fs.Arg(i), err)
			return 2
		}
	}
	var spec benchSpec
	b, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "msodperf compare: BENCHMARK.json:", err)
		return 2
	}
	a, c := sets[0], sets[1]
	fmt.Printf("%s: %s (%d runs) -> %s (%d runs)\n", a.Workload, fs.Arg(0), len(a.Runs), fs.Arg(1), len(c.Runs))
	fmt.Printf("  %-22s %14s %14s %9s %7s %7s  %s\n", "metric", "median a", "median b", "change", "bound", "spread", "verdict")
	flagged := 0
	for _, m := range spec.EndToEnd {
		sa, okA := a.EndToEnd[m.Name]
		sb, okB := c.EndToEnd[m.Name]
		if !okA || !okB || sa.Median == 0 {
			fmt.Printf("  %-22s missing\n", m.Name)
			continue
		}
		change := (sb.Median - sa.Median) / sa.Median
		worse := change
		if m.Better == "higher" {
			worse = -change
		}
		allowed := math.Max(m.Bound, math.Max(sa.IQRShare, sb.IQRShare))
		verdict := "ok"
		switch {
		case worse > allowed:
			verdict = "WORSE"
			flagged++
		case -worse > allowed:
			verdict = "better"
		}
		fmt.Printf("  %-22s %14.3f %14.3f %+8.1f%% %6.1f%% %6.1f%%  %s\n", m.Name, sa.Median, sb.Median,
			100*change, 100*m.Bound, 100*math.Max(sa.IQRShare, sb.IQRShare), verdict)
	}
	fa, fb := failedShare(a), failedShare(c)
	fmt.Printf("  failed share: %.6f -> %.6f\n", fa, fb)
	if flagged > 0 {
		return 1
	}
	return 0
}

func failedShare(s repeatSet) float64 {
	var att, fail int
	for _, r := range s.Runs {
		att += r.Result.Attempted
		fail += r.Result.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}
