package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/search"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs (nearest rank on the sorted
// values); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies collects per-request latencies by request type, in
// completion order; safe for concurrent use.
type latencies struct {
	mu   sync.Mutex
	sqec []float64
	qlq  []float64
	// ends holds every sample's completion time.
	ends []time.Time
}

func (l *latencies) add(baseline bool, d time.Duration) {
	l.mu.Lock()
	if baseline {
		l.qlq = append(l.qlq, ms(d))
	} else {
		l.sqec = append(l.sqec, ms(d))
	}
	l.ends = append(l.ends, time.Now())
	l.mu.Unlock()
}

func (l *latencies) count() int { return len(l.sqec) + len(l.qlq) }

// chunkSamples is the least sample count a latency percentile is taken
// over. A p99 over 500 samples has five beyond it, not ten; in exchange
// the median runs over twice as many chunks, which keeps bursts of
// outside interference out of the result.
const chunkSamples = 500

// chunked splits xs (in completion order) into consecutive chunks of at
// least chunkSamples (one chunk when there are fewer) and returns the
// median over the chunks of each chunk's q-quantile, so a burst of
// interference from outside the process moves one chunk, not the
// result.
func chunked(xs []float64, q float64) (v float64, chunks int) {
	chunks = max(1, len(xs)/chunkSamples)
	per := make([]float64, chunks)
	for c := range per {
		lo, hi := c*len(xs)/chunks, (c+1)*len(xs)/chunks
		per[c] = quantile(append([]float64(nil), xs[lo:hi]...), q)
	}
	return median(per), chunks
}

// report sets the four latency metrics — each request type on its own —
// and prints the sample counts behind them.
func (l *latencies) report(r *run) {
	sqec50, cs := chunked(l.sqec, 0.50)
	sqec99, _ := chunked(l.sqec, 0.99)
	qlq50, cq := chunked(l.qlq, 0.50)
	qlq99, _ := chunked(l.qlq, 0.99)
	header("samples", fmt.Sprintf("sqec %d in %d chunks, qlq %d in %d chunks (percentiles are medians over chunks of >= %d)",
		len(l.sqec), cs, len(l.qlq), cq, chunkSamples))
	if len(l.sqec) < chunkSamples || len(l.qlq) < chunkSamples {
		header("note", fmt.Sprintf("fewer than %d samples of a type: its p99 has fewer than 10 samples beyond it", chunkSamples))
	}
	r.set("sqec_p50_ms", sqec50, "ms")
	r.set("sqec_p99_ms", sqec99, "ms")
	r.set("qlq_p50_ms", qlq50, "ms")
	r.set("qlq_p99_ms", qlq99, "ms")
}

// rate is the median over whole windows of length w from start of the
// completions per second.
func (l *latencies) rate(start time.Time, w time.Duration) float64 {
	var counts []float64
	for _, e := range l.ends {
		i := int(e.Sub(start) / w)
		for len(counts) <= i {
			counts = append(counts, 0)
		}
		counts[i]++
	}
	if len(counts) > 1 {
		counts = counts[:len(counts)-1] // the last window is partial
	}
	return median(counts) / w.Seconds()
}

// sameResults reports whether got equals want in names, order and
// bit-identical scores.
func sameResults(got, want []search.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Name != want[i].Name || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// procCounters snapshots the process's allocation and GC-pause counters.
type procCounters struct {
	mallocs uint64
	pauseNs uint64
}

func readProc() procCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procCounters{mallocs: m.Mallocs, pauseNs: m.PauseTotalNs}
}

// reportProc sets the process-level per-request metrics for the
// requests completed between two snapshots.
func reportProc(r *run, before, after procCounters, requests int) {
	n := math.Max(1, float64(requests))
	r.set("process.allocs_per_req", float64(after.mallocs-before.mallocs)/n, "count")
	r.set("process.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6/n, "ms")
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// sourceDigest hashes the module's Go sources and go.mod (paths and
// contents, in walk order), skipping the benchmark's own build output.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				h.Write([]byte(rel))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
