package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sqe "repro"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/motif"
	"repro/internal/search"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public function. Spans of one request share
// req; parent is the id of the span that caused it (0 for the request's
// root).
type span struct {
	req, id, parent int64
	name            string
	start, end      int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run analyses them. A nil
// *tracer records nothing.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span in progress.
type open struct {
	t    *tracer
	s    span
	done bool
}

// begin opens a span of layer name under parent within request req.
func (t *tracer) begin(req, parent int64, name string) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, s: span{req: req, id: t.ids.Add(1), parent: parent, name: name, start: int64(time.Since(t.epoch))}}
}

// beginAt is begin with an explicit start time.
func (t *tracer) beginAt(req, parent int64, name string, at time.Time) *open {
	o := t.begin(req, parent, name)
	if o != nil {
		o.s.start = int64(at.Sub(t.epoch))
	}
	return o
}

// endAt closes the span at an explicit time.
func (o *open) endAt(at time.Time) {
	if o == nil || o.done {
		return
	}
	o.done = true
	o.s.end = int64(at.Sub(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// id is the span's id, for use as a child's parent (0 on a nil span).
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.id
}

// end closes the span.
func (o *open) end() { o.endAt(time.Now()) }

// layerSumTolerance bounds how far a traced request's summed layer self
// times may stray from its wall time (the root span's duration).
const layerSumTolerance = 0.02

// traceSummary is what a traced leg's spans say.
type traceSummary struct {
	requests int
	// selfMs is each layer's self time summed over the requests.
	selfMs map[string]float64
	// durMs is each layer's span duration summed over the requests.
	durMs map[string]float64
	// maxDev is the largest |Σ self − wall| / wall over the requests.
	maxDev float64
	// bad counts requests beyond layerSumTolerance.
	bad int
}

// summarize attributes each request's time to its spans' layers. At
// every instant the deepest spans open at that instant share it
// equally, so a layer's self time is its span time minus the part its
// child spans cover, and concurrent children (SQE_C's parallel runs)
// are not counted twice. The layer self times of a request sum to the
// time its spans cover; a span escaping its parent shows as a sum above
// the root's duration.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.req] = append(byReq[s.req], s)
	}
	ts := traceSummary{selfMs: map[string]float64{}, durMs: map[string]float64{}}
	for _, ss := range byReq {
		var root *span
		depth := map[int64]int{}
		parent := map[int64]int64{}
		for i := range ss {
			parent[ss[i].id] = ss[i].parent
			if ss[i].parent == 0 {
				root = &ss[i]
			}
		}
		if root == nil {
			continue // a request whose root never closed
		}
		var depthOf func(id int64) int
		depthOf = func(id int64) int {
			if d, ok := depth[id]; ok {
				return d
			}
			d := 0
			if p := parent[id]; p != 0 {
				d = depthOf(p) + 1
			}
			depth[id] = d
			return d
		}
		// Sweep the request's span boundaries.
		type edge struct {
			at   int64
			open bool
			i    int
		}
		edges := make([]edge, 0, 2*len(ss))
		for i, s := range ss {
			edges = append(edges, edge{s.start, true, i}, edge{s.end, false, i})
			ts.durMs[s.name] += float64(s.end-s.start) / 1e6
		}
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].at != edges[b].at {
				return edges[a].at < edges[b].at
			}
			return !edges[a].open && edges[b].open
		})
		active := map[int]bool{}
		var sum float64
		for e := 0; e < len(edges); e++ {
			if e > 0 && len(active) > 0 {
				dt := float64(edges[e].at - edges[e-1].at)
				maxD := -1
				var deepest []int
				for i := range active {
					switch d := depthOf(ss[i].id); {
					case d > maxD:
						maxD, deepest = d, []int{i}
					case d == maxD:
						deepest = append(deepest, i)
					}
				}
				for _, i := range deepest {
					ts.selfMs[ss[i].name] += dt / float64(len(deepest)) / 1e6
				}
				sum += dt
			}
			if edges[e].open {
				active[edges[e].i] = true
			} else {
				delete(active, edges[e].i)
			}
		}
		wall := float64(root.end - root.start)
		dev := 0.0
		if wall > 0 {
			dev = math.Abs(sum-wall) / wall
		}
		ts.maxDev = math.Max(ts.maxDev, dev)
		if dev > layerSumTolerance {
			ts.bad++
		}
		ts.requests++
	}
	return ts
}

// check applies the layer-sum check and reports it.
func (ts traceSummary) check(r *run, leg string) {
	header("layer_sum_"+leg, fmt.Sprintf("%d traced requests, max |Σ self − wall|/wall %.4f, %d beyond tolerance %.2f",
		ts.requests, ts.maxDev, ts.bad, layerSumTolerance))
	if ts.requests == 0 {
		r.fail("%s: no traced request completed", leg)
	}
	if ts.bad > 0 {
		r.fail("%s: %d traced requests whose layer self times miss their wall time by more than %.0f%%", leg, ts.bad, 100*layerSumTolerance)
	}
}

// perRequest is a layer's summed self time per traced request.
func (ts traceSummary) perRequest(layer string) float64 {
	return ratio(ts.selfMs[layer], float64(ts.requests))
}

// searchFunc is a retrieval layer's public search call.
type searchFunc func(ctx context.Context, node search.Node, k int) ([]search.Result, search.SearchStats, error)

// replayer re-runs a request through the public layer calls the engine
// makes — title→node, Expander.BuildQueryGraph, BuildQuery, three
// retrievals, core.SpliceResultsC — with a span around each, so the
// request's time splits into layers from outside the program.
type replayer struct {
	graph  *sqe.Graph
	exp    *core.Expander
	search searchFunc
	// retrieval names the retrieval layer's spans.
	retrieval string
}

// sqecSets is SQE_C's run order (T, T&S, S), the order the splice
// expects.
var sqecSets = [3]motif.Set{motif.SetT, motif.SetTS, motif.SetS}

// replay runs q at depth k under request id req and adds its counters
// to acc (which may be nil).
func (p *replayer) replay(ctx context.Context, tr *tracer, req int64, q request, k int, acc *counters) ([]search.Result, error) {
	root := tr.begin(req, 0, "request")
	defer root.end()
	retrieve := func(node search.Node) ([]search.Result, error) {
		s := tr.begin(req, root.id(), p.retrieval)
		res, st, err := p.search(ctx, node, k)
		s.end()
		acc.addSearch(st)
		return res, err
	}
	if q.baseline {
		s := tr.begin(req, root.id(), "core.query_build")
		node := p.exp.QLQuery(q.query)
		s.end()
		return retrieve(node)
	}
	s := tr.begin(req, root.id(), "entitylink.link")
	nodes := make([]kb.NodeID, len(q.titles))
	for i, t := range q.titles {
		nodes[i] = p.graph.ByTitle(t)
	}
	s.end()
	for i, n := range nodes {
		if n == kb.Invalid {
			return nil, fmt.Errorf("unknown entity title %q", q.titles[i])
		}
	}
	var runs [3][]search.Result
	for i, set := range sqecSets {
		s = tr.begin(req, root.id(), "core.expand")
		qg := p.exp.BuildQueryGraph(nodes, set)
		s.end()
		acc.add("features", int64(len(qg.Features)))
		s = tr.begin(req, root.id(), "core.query_build")
		node := p.exp.BuildQuery(q.query, qg)
		s.end()
		res, err := retrieve(node)
		if err != nil {
			return nil, err
		}
		runs[i] = res
	}
	s = tr.begin(req, root.id(), "core.splice")
	out := core.SpliceResultsC(k, runs[0], runs[1], runs[2])
	s.end()
	return out, nil
}

// countNames are the deterministic counts the traced run reports and
// the exact-repeat check compares. Each workload fills those its layers
// have; the rest stay 0.
var countNames = []string{
	"requests", "retrievals", "candidates", "postings_advanced", "docs_skipped",
	"blocks_decoded", "blocks_total", "heap_pushes", "heap_evictions", "features",
	"cache_hits", "cache_misses", "rpc_calls", "rpc_bytes",
	"ingested", "deleted", "flushes", "compactions", "segments", "bytes_written",
}

// counters accumulates deterministic counts; safe for concurrent use. A
// nil *counters ignores every addition.
type counters struct {
	mu sync.Mutex
	m  map[string]int64
}

func newCounters() *counters { return &counters{m: map[string]int64{}} }

func (c *counters) add(name string, v int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[name] += v
	c.mu.Unlock()
}

func (c *counters) get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// addSearch adds one retrieval's evaluator counters.
func (c *counters) addSearch(st search.SearchStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m["retrievals"]++
	c.m["candidates"] += st.CandidatesExamined
	c.m["postings_advanced"] += st.PostingsAdvanced
	c.m["docs_skipped"] += st.DocsSkipped
	c.m["blocks_decoded"] += st.BlocksDecoded
	c.m["blocks_total"] += st.BlocksTotal
	c.m["heap_pushes"] += st.HeapPushes
	c.m["heap_evictions"] += st.HeapEvictions
	c.mu.Unlock()
}

// searchLayer sets the retrieval-evaluator ratios from c.
func searchLayer(r *run, c *counters) {
	req := float64(c.get("requests"))
	cand := float64(c.get("candidates"))
	skipped := float64(c.get("docs_skipped"))
	r.set("search.candidates_per_query", ratio(cand, req), "count")
	r.set("search.skip_ratio", ratio(skipped, skipped+float64(c.get("postings_advanced"))), "ratio")
	r.set("search.heap_push_ratio", ratio(float64(c.get("heap_pushes")+c.get("heap_evictions")), cand), "ratio")
	r.set("index.blocks_decoded_ratio", ratio(float64(c.get("blocks_decoded")), float64(c.get("blocks_total"))), "ratio")
}

// exactRepeat demands that two passes over the same requests produced
// identical counts, and reports the first pass's counts.
func exactRepeat(r *run, a, b *counters) {
	same := true
	for _, n := range countNames {
		if a.get(n) != b.get(n) {
			same = false
			r.fail("exact repeat: count %s is %d then %d", n, a.get(n), b.get(n))
		}
		r.set("count."+n, float64(a.get(n)), "count")
	}
	header("exact_repeat", fmt.Sprintf("%d counts identical across two passes: %v", len(countNames), same))
}

// perLayerMetrics lists every per-layer metric with its unit. Each
// traced run reports all of them; a layer the workload does not reach
// reports 0 (for example rpc.* on the in-process workload).
var perLayerMetrics = []struct{ name, unit string }{
	{"search.retrieval_ms", "ms"},
	{"search.candidates_per_query", "count"},
	{"search.skip_ratio", "ratio"},
	{"search.heap_push_ratio", "ratio"},
	{"index.blocks_decoded_ratio", "ratio"},
	{"core.expand_ms", "ms"},
	{"core.cache_hit_ratio", "ratio"},
	{"motif.features_per_query", "count"},
	{"core.query_build_ms", "ms"},
	{"core.splice_ms", "ms"},
	{"entitylink.link_ms", "ms"},
	{"search.remote_ms", "ms"},
	{"search.shard_eval_ms", "ms"},
	{"search.remote_overhead_ms", "ms"},
	{"rpc.calls_per_req", "count"},
	{"rpc.bytes_per_req", "bytes"},
	{"rpc.retries", "count"},
	{"rpc.failures", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.resp_bytes", "bytes"},
	{"index.flush_ms", "ms"},
	{"index.compact_ms", "ms"},
	{"index.write_amp", "ratio"},
	{"index.segments_at_query", "count"},
	{"search.segment_retrieval_ms", "ms"},
	{"index.open_ms", "ms"},
	{"process.allocs_per_req", "count"},
	{"process.gc_pause_ms", "ms"},
	{"load.generator_lag_ms", "ms"},
	{"load.backlog", "count"},
	{"trace.requests", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.layer_sum_max_dev", "ratio"},
	{"trace.unattributed_ms", "ms"},
	{"gomaxprocs1.throughput_qps", "1/s"},
	{"gomaxprocs1.sqec_p50_ms", "ms"},
	{"gomaxprocs1.retrieval_ms", "ms"},
	{"gomaxprocs1.parallel_speedup", "ratio"},
}

// fillPerLayer adds every per-layer metric the workload did not set, as
// 0, so each traced run reports the full list.
func fillPerLayer(r *run) {
	for _, m := range perLayerMetrics {
		if _, ok := r.res.Metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
	for _, n := range countNames {
		if _, ok := r.res.Metrics["count."+n]; !ok {
			r.set("count."+n, 0, "count")
		}
	}
}
