// Command e2ebench is the repository's end-to-end benchmark: it times
// the paper's unit of work (entity link → motif expansion → three
// SQE_C retrievals → splice, beside the QL_Q baseline) through the
// topologies the system serves, checks every output against an
// exhaustive in-memory oracle, and prints one JSON result line.
//
// Usage (from the repository root, normally through run.sh):
//
//	e2ebench --workload paper_depth1000 --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// legs and reports the per-layer metrics instead. See README.md for the
// metric definitions and how to read them.
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
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries what every workload needs: its arguments, a scratch
// directory inside the checkout, the result being filled and the
// human-readable report printed before the JSON line.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string
	root     string

	res      result
	problems []string
}

// set records one metric.
func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness problem; the run then reports
// correct=false and exits non-zero.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
	r.res.Correct = false
}

// header prints one "# key: value" line of the run header.
func header(key string, v any) { fmt.Printf("# %s: %v\n", key, v) }

var workloads = map[string]func(*run) error{
	"paper_depth1000":   runPaper,
	"serve_top10_dist":  runServe,
	"live_ingest_mixed": runLive,
}

func main() {
	workload := flag.String("workload", "", "paper_depth1000 | serve_top10_dist | live_ingest_mixed")
	seed := flag.Int64("seed", 1, "seed for query order, interleave and the ingest/delete schedule")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced legs and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for index files")
	root := flag.String("root", ".", "repository root (for the source digest in the header)")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		dir:      dir,
		root:     *root,
		res:      result{Correct: true, Metrics: map[string]metric{}},
	}
	header("workload", r.workload)
	header("seed", r.seed)
	header("seconds", *seconds)
	header("trace", *trace)
	header("gomaxprocs", runtime.GOMAXPROCS(0))
	header("nproc", runtime.NumCPU())
	header("go", runtime.Version())
	header("source", sourceID(r.root))

	err = fn(r)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if r.res.Attempted < 1 {
		r.fail("no operation attempted")
	}
	printResult(r)
	if !r.res.Correct {
		os.Exit(1)
	}
}

// printResult prints every metric by name and unit, the problems found,
// and the JSON result as the last line.
func printResult(r *run) {
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("failed_ratio %g (%d failed of %d attempted)\n",
		float64(r.res.Failed)/math.Max(1, float64(r.res.Attempted)), r.res.Failed, r.res.Attempted)
	for _, p := range r.problems {
		fmt.Println("PROBLEM:", p)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// sourceID names the code under test: the git commit when the checkout
// has one, and always a digest of the module's Go sources, so runs of a
// plain source export are identifiable too.
func sourceID(root string) string {
	commit := "none"
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", rest)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		commit = ref
	}
	return fmt.Sprintf("commit %s, go-source sha256 %s", commit, sourceDigest(root))
}
