package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	sqe "repro"
	"repro/internal/index"
	"repro/internal/search"
)

// setupReps is how many times each workload sets up its serving stack;
// setup_s is the median.
const setupReps = 9

// paperK is the paper's run depth.
const paperK = 1000

// closedLoop runs clients goroutines that each issue the next request of
// seq (wrapping around) as soon as their previous one completes, until
// d has passed. do serves one request and reports whether it succeeded.
// It returns the completed count and the elapsed time.
func closedLoop(clients int, d time.Duration, seq []int, do func(ri int) bool) (ok, failed int64, elapsed time.Duration) {
	var next, nOK, nFail atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if do(seq[int(i)%len(seq)]) {
					nOK.Add(1)
				} else {
					nFail.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return nOK.Load(), nFail.Load(), time.Since(start)
}

// clients is the closed-loop client count: one per CPU.
func clients() int { return runtime.NumCPU() }

// paperClients is paper_depth1000's closed-loop client count. One
// client leaves the engine's own parallelism (SQE_C's three retrievals
// run concurrently across GOMAXPROCS) as the only parallelism, which
// keeps run-to-run spread low on a shared host.
const paperClients = 1

// runPaper is the paper_depth1000 workload: in-process Engine.Do over an
// mmap'd FormatV2 file of the CHiC collection, SQE_C and QL_Q at depth
// 1000, expansion cache off, in a closed loop of one client per CPU.
func runPaper(r *run) error {
	ctx := context.Background()
	c, err := loadCHiC()
	if err != nil {
		return err
	}
	want, err := oracleResults(ctx, c.graph, c.index, c.reqs, paperK)
	if err != nil {
		return err
	}
	seq := schedule(r.seed, len(c.reqs), 50*len(c.reqs))

	// Set-up: encode the v2 file, open it, build the engine and answer
	// the first request of the schedule.
	var setups, opens []float64
	var eng *sqe.Engine
	var ix *index.Index
	var fileBytes int64
	for i := 0; i < setupReps; i++ {
		path := filepath.Join(r.dir, fmt.Sprintf("chic-%d.v2", i))
		start := time.Now()
		if err := index.WriteFile(path, c.index, index.FormatV2); err != nil {
			return err
		}
		written := time.Since(start)
		nix, err := index.Open(path)
		if err != nil {
			return err
		}
		opened := time.Since(start) - written
		neng := sqe.NewEngine(c.graph, nix)
		first := c.reqs[seq[0]]
		resp, err := neng.Do(ctx, first.search(paperK))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		opens = append(opens, ms(opened))
		if !sameResults(resp.Results, want[seq[0]]) {
			r.fail("setup %d: first request differs from the oracle", i)
		}
		if ix != nil {
			ix.Close()
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		eng, ix, fileBytes = neng, nix, st.Size()
	}
	defer ix.Close()
	c.index = nil // served from the v2 file from here on
	header("clients", fmt.Sprintf("%d (closed loop); traced legs: %d, and 1 at GOMAXPROCS=1", paperClients, clients()))

	// Correctness gate: every distinct request against the oracle. It
	// also warms the mapping before timing.
	got := make([][]search.Result, len(c.reqs))
	for i, q := range c.reqs {
		r.res.Attempted++
		resp, err := eng.Do(ctx, q.search(paperK))
		if err != nil || !sameResults(resp.Results, want[i]) {
			r.res.Failed++
			r.fail("gate: %s %s differs from the oracle (err %v)", q.kind(), q.topic, err)
			continue
		}
		got[i] = resp.Results
	}

	do := func(ri int) bool {
		q := c.reqs[ri]
		resp, err := eng.Do(ctx, q.search(paperK))
		return err == nil && sameResults(resp.Results, want[ri])
	}
	if r.traced {
		return paperTraced(ctx, r, c, eng, want, seq, do, median(opens))
	}

	lat := &latencies{}
	timed := func(ri int) bool {
		q := c.reqs[ri]
		start := time.Now()
		resp, err := eng.Do(ctx, q.search(paperK))
		d := time.Since(start)
		if err != nil || !sameResults(resp.Results, want[ri]) {
			return false
		}
		lat.add(q.baseline, d)
		return true
	}
	start := time.Now()
	ok, failed, _ := closedLoop(paperClients, r.seconds, seq, timed)
	r.res.Attempted += ok + failed
	r.res.Failed += failed
	if failed > 0 {
		r.fail("%d timed requests failed or differed from the oracle", failed)
	}
	qps := lat.rate(start, time.Second)
	r.set("setup_s", median(setups), "s")
	r.set("throughput_qps", qps, "1/s")
	r.set("sustained_rps", qps, "1/s")
	lat.report(r)
	ingest, err := c.ingestRate(func(ix *index.Index) error {
		return index.WriteFile(filepath.Join(r.dir, "ingest.v2"), ix, index.FormatV2)
	})
	if err != nil {
		return err
	}
	r.set("ingest_docs_per_s", ingest, "1/s")
	r.set("space_amp", float64(fileBytes)/float64(c.textBytes), "ratio")
	quality(r, c.reqs, got, c.qrels)
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// paperTraced is paper_depth1000's traced run: an untraced leg for the
// overhead baseline and the allocation counts, two sequential replay
// passes for the exact-repeat check, the traced leg at one client per
// CPU, and the same traced leg at GOMAXPROCS=1 with one client.
func paperTraced(ctx context.Context, r *run, c *chicCorpus, eng *sqe.Engine, want [][]search.Result, seq []int, do func(int) bool, openMs float64) error {
	leg := r.seconds / 3
	p := &replayer{graph: c.graph, exp: eng.Expander(), search: search.NewSearcher(eng.Index()).SearchWithStatsContext, retrieval: "search.retrieval"}

	before := readProc()
	ok, failed, elapsed := closedLoop(clients(), leg, seq, do)
	reportProc(r, before, readProc(), int(ok+failed))
	r.res.Attempted += ok + failed
	r.res.Failed += failed
	if failed > 0 {
		r.fail("untraced leg: %d requests failed or differed from the oracle", failed)
	}
	untracedQPS := float64(ok) / elapsed.Seconds()

	// Two passes over every distinct request, one at a time: the counts
	// must repeat exactly and each replay must equal Engine.Do's result.
	var passes [2]*counters
	for pass := range passes {
		acc := newCounters()
		for i, q := range c.reqs {
			r.res.Attempted++
			acc.add("requests", 1)
			res, err := p.replay(ctx, nil, int64(i), q, paperK, acc)
			if err != nil || !sameResults(res, want[i]) {
				r.res.Failed++
				r.fail("replay pass %d: %s %s differs from Engine.Do (err %v)", pass, q.kind(), q.topic, err)
			}
		}
		passes[pass] = acc
	}
	exactRepeat(r, passes[0], passes[1])

	tracedLeg := func(n int) (traceSummary, *counters, *latencies, float64) {
		tr := newTracer()
		acc := newCounters()
		lat := &latencies{}
		var reqID atomic.Int64
		ok, failed, elapsed := closedLoop(n, leg, seq, func(ri int) bool {
			q := c.reqs[ri]
			start := time.Now()
			res, err := p.replay(ctx, tr, reqID.Add(1), q, paperK, acc)
			d := time.Since(start)
			if err != nil || !sameResults(res, want[ri]) {
				return false
			}
			acc.add("requests", 1)
			lat.add(q.baseline, d)
			return true
		})
		r.res.Attempted += ok + failed
		r.res.Failed += failed
		if failed > 0 {
			r.fail("traced leg: %d replays differ from the oracle", failed)
		}
		return tr.summarize(), acc, lat, float64(ok) / elapsed.Seconds()
	}

	ts, acc, lat, qps := tracedLeg(clients())
	ts.check(r, "nproc")
	prev := runtime.GOMAXPROCS(1)
	ts1, _, lat1, qps1 := tracedLeg(1)
	runtime.GOMAXPROCS(prev)
	ts1.check(r, "gomaxprocs1")

	searchLayer(r, acc)
	r.set("search.retrieval_ms", ts.perRequest("search.retrieval"), "ms")
	r.set("core.expand_ms", ts.perRequest("core.expand"), "ms")
	r.set("core.query_build_ms", ts.perRequest("core.query_build"), "ms")
	r.set("core.splice_ms", ts.perRequest("core.splice"), "ms")
	r.set("entitylink.link_ms", ts.perRequest("entitylink.link"), "ms")
	r.set("trace.unattributed_ms", ts.perRequest("request"), "ms")
	r.set("motif.features_per_query", ratio(float64(acc.get("features")), float64(len(lat.sqec))), "count")
	r.set("core.cache_hit_ratio", 0, "ratio")
	r.set("index.open_ms", openMs, "ms")
	r.set("trace.requests", float64(ts.requests), "count")
	r.set("trace.layer_sum_max_dev", ts.maxDev, "ratio")
	r.set("trace.overhead_ratio", 1-qps/untracedQPS, "ratio")
	r.set("gomaxprocs1.throughput_qps", qps1, "1/s")
	r.set("gomaxprocs1.sqec_p50_ms", quantile(lat1.sqec, 0.5), "ms")
	r.set("gomaxprocs1.retrieval_ms", ts1.perRequest("search.retrieval"), "ms")
	r.set("gomaxprocs1.parallel_speedup", qps/qps1, "ratio")
	header("throughput", fmt.Sprintf("untraced %.1f/s, traced %.1f/s at %d clients; traced %.1f/s at GOMAXPROCS=1", untracedQPS, qps, clients(), qps1))
	fillPerLayer(r)
	return nil
}
