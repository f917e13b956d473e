// Command perfbench is the repository benchmark: it serves kNN queries
// through a real hyperdomd child process over loopback and reports the
// end-to-end metrics of one workload, or — with -trace 1 — the per-layer
// metrics of an in-process traced run over the same corpus and queries.
//
// Run it from the repository root through the wrapper, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload lookup-d4 --seed 1 --seconds 30 --trace 0
//
// Every answer is diffed against a single-index oracle. The last line of
// standard output is one JSON object {correct, attempted, failed, metrics};
// the lines before it print every metric with its unit and sample count,
// the harness's own health and the environment. The exit status is 0 only
// when every answer was right.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	hyperdomd string
	workdir   string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.workload, "workload", "lookup-d4", "workload: lookup-d4|scan-d10|wide-d4")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed: corpus and queries derive from it")
	fs.IntVar(&c.seconds, "seconds", 30, "measured seconds per run (split between the phases)")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics over loopback; 1: per-layer traced run")
	fs.StringVar(&c.hyperdomd, "hyperdomd", "", "path of the hyperdomd binary to serve with")
	fs.StringVar(&c.workdir, "workdir", ".bench_build/perfbench", "directory for corpora, logs and traces")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := findWorkload(c.workload); !ok {
		return c, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) || c.hyperdomd == "" {
		return c, fmt.Errorf("need -seconds >= 1, -trace 0|1 and -hyperdomd")
	}
	return c, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run with the sample count behind
// each, for the human-readable table and the final JSON line.
type report struct {
	metrics map[string]metric
	rows    []row
	notes   []string
}

type row struct {
	name    string
	m       metric
	samples string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}}
}

// add records a metric of the final JSON line and prints it.
func (r *report) add(name string, v float64, unit, samples string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.show(name, v, unit, samples)
}

// show prints a figure that is not a metric of BENCHMARK.json.
func (r *report) show(name string, v float64, unit, samples string) {
	r.rows = append(r.rows, row{name, metric{Value: v, Unit: unit}, samples})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally is the run's request accounting across every phase.
type tally struct {
	attempted, failed int64
}

func run(args []string) int {
	c, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, _ := findWorkload(c.workload)
	// One directory per workload and mode, reused by every seed, so runs
	// do not pile corpora up in the checkout.
	dir := filepath.Join(c.workdir, fmt.Sprintf("run-%s-trace%d", w.name, c.trace))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	t0 := time.Now()
	fx, err := newFixture(w, c.seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fixture:", err)
		return 1
	}
	rep := newReport()
	rep.note("fixture (corpus, %d queries, oracle) took %.1fs", len(fx.queries), time.Since(t0).Seconds())
	var t tally
	if c.trace == 0 {
		t, err = runE2E(fx, c.hyperdomd, c.seconds, rep)
	} else {
		t, err = runTraced(fx, c.hyperdomd, c.seconds, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	for _, r := range rep.rows {
		fmt.Printf("%-10s %-32s %14.6g %-6s %s\n", w.name, r.name, r.m.Value, r.m.Unit, r.samples)
	}
	for _, n := range rep.notes {
		fmt.Printf("%-10s # %s\n", w.name, n)
	}
	env, _ := json.Marshal(environment(c))
	fmt.Printf("%-10s # env %s\n", w.name, env)

	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, rep.metrics})
	fmt.Println(string(out))
	if t.failed != 0 {
		return 1
	}
	return 0
}
