// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time, checks every response or result for
// correctness, and prints its metrics by name with their units; the
// last line of standard output is the machine-readable result.
//
//	perfbench -workload serve-sparse -seed 1 -seconds 20 -trace 0
//	perfbench compare old.json new.json
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// What each means on each workload is in README.md.
var endToEnd = []metricDef{{"p50_ms", "ms"}, {"throughput_per_s", "1/s"}, {"setup_s", "s"}}

// perLayer are the metrics a traced run reports, on every workload. The
// tail latency and the peak resident set lead the list: they are
// end-to-end numbers, but too unsteady from run to run on a shared host
// to carry a regression bound.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"p99_ms", "ms"}, {"peak_rss_mb", "MiB"},
		{"serve.ttfb_ms.p50", "ms"}, {"serve.ttfb_ms.p99", "ms"}, {"serve.send_late_ms.p99", "ms"},
		{"server.cpu_ms_per_op", "ms"}, {"serve.write_errors", "count"}, {"serve.shed", "count"},
	}
	for _, c := range interactiveClasses {
		d = append(d, metricDef{"class." + c + ".p50_ms", "ms"}, metricDef{"class." + c + ".p99_ms", "ms"})
	}
	for _, c := range batchClasses {
		d = append(d, metricDef{"class." + c + ".per_s", "1/s"})
	}
	for _, c := range icilkCounters {
		d = append(d, metricDef{c.metric, c.unit})
	}
	d = append(d,
		metricDef{"icilk.spawn_touch_ns", "ns"}, metricDef{"icilk.promise_touch_ns", "ns"},
		metricDef{"icilk.new_shutdown_ms", "ms"},
		metricDef{"jserver.exec_ms.matmul", "ms"}, metricDef{"jserver.exec_ms.fib", "ms"},
		metricDef{"jserver.exec_ms.sort", "ms"}, metricDef{"jserver.exec_ms.sw", "ms"},
		metricDef{"proxy.lookup_us", "us"}, metricDef{"email.send_us", "us"},
		metricDef{"email.sort_ms", "ms"}, metricDef{"email.print_ms", "ms"},
		metricDef{"parser.parse_ms", "ms"}, metricDef{"compile.compile_ms", "ms"},
		metricDef{"compile.run_ms.p50", "ms"}, metricDef{"compile.run_ms.p99", "ms"},
		metricDef{"compile.eval_ms", "ms"},
	)
	for _, l := range spanLayers {
		d = append(d, metricDef{"self_ms." + l, "ms"})
	}
	return append(d,
		metricDef{"trace.overhead.p50_frac", "frac"}, metricDef{"trace.overhead.p99_frac", "frac"},
		metricDef{"trace.overhead.throughput_frac", "frac"}, metricDef{"samples", "count"},
	)
}()

var workloads = []string{"serve-sparse", "serve-mixed", "serve-flood", "l4i-forkjoin"}

// report is one run's outcome.
type report struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string // human-readable detail: sample counts, aliases
	problems  []string // failed correctness checks, first few of each run
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a failed correctness check; any problem makes the run
// incorrect.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count tallies operations; failures are listed (up to a limit) and
// fail the run.
func (r *report) count(ops []*op, kinds []kind) {
	for _, o := range ops {
		r.attempted++
		if o.err != nil {
			r.failed++
			r.problem("%s: %v", kinds[o.kind].path, o.err)
		}
	}
}

type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	serverBin string
	outDir    string
	workers   int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var traceFlag, secs int
	flag.StringVar(&cfg.workload, "workload", "", "one of serve-sparse, serve-mixed, serve-flood, l4i-forkjoin")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: fixes every generated input")
	flag.IntVar(&secs, "seconds", 20, "measured duration of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.serverBin, "server", ".bench_build/icilk-serve", "icilk-serve binary built from the tree under test")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for result records and traces")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = traceFlag == 1
	cfg.workers = runtime.NumCPU()
	if secs < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}

	var run func(config) (*report, error)
	switch cfg.workload {
	case "serve-sparse", "serve-mixed", "serve-flood":
		run = runServe
	case "l4i-forkjoin":
		run = runL4i
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloads)
		os.Exit(2)
	}
	env := newEnvelope(cfg)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(cfg, env, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// record is a run's full result as saved for later comparison.
type record struct {
	Envelope  envelope          `json:"envelope"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes"`
	Problems  []string          `json:"problems,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// missMS stands in for +Inf (a failed request in a latency percentile),
// which JSON cannot carry.
const missMS = 1e9

// emit prints the human-readable report, saves the record, and prints
// the result line last. The result line carries the metrics of the
// run's kind, the end-to-end ones untraced and the per-layer ones
// traced; the record keeps every metric the run measured.
func emit(cfg config, env envelope, rep *report) error {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	rec := record{Envelope: env, Attempted: rep.attempted, Failed: rep.failed,
		Correct: rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0,
		Metrics: map[string]metric{}, Notes: rep.notes, Problems: rep.problems}
	for n, v := range rep.metrics {
		if math.IsInf(v, 1) {
			v = missMS
		}
		rec.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	result := map[string]metric{}
	for _, d := range defs {
		m, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		result[d.name] = m
	}

	envJSON, _ := json.Marshal(env)
	fmt.Printf("envelope %s\n", envJSON)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, p := range rep.problems {
		fmt.Println("  FAILED CHECK: " + p)
	}
	fmt.Printf("  failed_frac = %.6g (%d of %d)\n", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		where := ""
		if _, ok := result[n]; !ok {
			where = " (not in this run's result line)"
		}
		fmt.Printf("  %-36s %14.6g %s%s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit, where)
	}

	path := filepath.Join(cfg.outDir, "results",
		fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace]))
	if err := writeJSON(path, rec); err != nil {
		return err
	}
	fmt.Printf("  record: %s\n", path)

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, result})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
