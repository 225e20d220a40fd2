// Command xsdfbench is the repository benchmark. It runs one workload of
// the XSDF pipeline per process and prints every metric by name with its
// unit; the last line of its output is one JSON object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json, measured with nothing timed inside the window but the
// window itself. With --trace 1 they are the per-layer metrics: counters
// and MemStats deltas read at the edges of an untraced window, then
// timings from a second, traced window that drives each layer's public
// functions with the Framework's own option values and records spans
// around the calls. The command exits non-zero when a correctness check
// fails. See README.md for the workloads and why each was chosen.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload batch-warm --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// workload runs one benchmark workload into r. It returns an error only
// when the run could not be made at all; failed correctness checks are
// recorded with r.fail.
type workload func(cfg config, r *report) error

var workloads = map[string]workload{
	"batch-warm":   runBatchWarm,
	"cold-lexicon": runColdLexicon,
	"serve-unary":  runServeUnary,
}

var workloadOrder = []string{"batch-warm", "cold-lexicon", "serve-unary"}

// config is one invocation's settings.
type config struct {
	seed    int64
	window  time.Duration
	traced  bool
	workDir string // scratch space inside the checkout, removed on exit
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "xsdfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsdfbench:", err)
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "xsdfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "xsdfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsdfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, workDir: dir}
	r := newReport()
	h := hostInfo()
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.commit)
	if err := w(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "xsdfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := r.result(spec, cfg.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsdfbench:", err)
		return 1
	}
	r.print()
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsdfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "xsdfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// runAll runs every workload untraced and traced, each in a fresh
// process of this binary, and fails when any of them fails.
func runAll(seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsdfbench:", err)
		return 1
	}
	status := 0
	for _, name := range workloadOrder {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "xsdfbench: %s --trace %s: %v\n", name, trace, err)
				status = 1
			}
		}
	}
	return status
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, operation counts, failed checks,
// and the lines printed for a reader ahead of the result.
type report struct {
	e2e, layers       map[string]metric
	attempted, failed int
	problems          []string
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) endToEnd(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string)    { r.layers[name] = metric{v, unit} }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result checks that the run measured exactly the metrics BENCHMARK.json
// names for its mode, with the same units, and builds the output line.
func (r *report) result(s spec, traced bool) (result, error) {
	want, got := s.EndToEnd, r.e2e
	if traced {
		want, got = s.PerLayer, r.layers
	}
	out := result{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return result{}, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		// JSON has no infinity: a latency past the median of failed
		// requests is reported as the largest float, and fails the run.
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			r.fail("metric %s is %v", m.Name, v.Value)
			v.Value = math.MaxFloat64
		}
		out.Metrics[m.Name] = v
	}
	out.Correct = len(r.problems) == 0
	if out.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return out, nil
}

// print writes the notes and every measured metric, end-to-end and
// per-layer, one per line.
func (r *report) print() {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, set := range []map[string]metric{r.e2e, r.layers} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("# %-34s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

// spec is the part of BENCHMARK.json the benchmark checks itself against.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading the metric list: %w (run from the repository root)", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}
