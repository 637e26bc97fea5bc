package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sqe "repro"
	"repro/internal/index"
	"repro/internal/rpc"
	"repro/internal/search"
	"repro/internal/serve"
)

// serveK is the serving workload's result depth.
const serveK = 10

// The serving workload's load shape. A closed loop of one client per
// CPU gives the latency and throughput numbers; an open-loop ladder of
// offered rates gives sustained_rps. A rung is sustained when its p99 latency,
// timed from when each request was due, is within p99Limit and its
// backlog at the end of the rung is at most one limit's worth of
// arrivals. The traced run offers refRate in the open loop.
const (
	refRate  = 200.0
	p99Limit = 200 * time.Millisecond
	numShard = 2
)

var ladder = []float64{400, 500, 600, 700, 800}

// traceHeader carries "<request id>/<parent span id>" from the load
// generator to the traced handler; the server ignores it.
const traceHeader = "X-Bench-Trace"

// countingListener counts the bytes its connections read and write.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// traceCtx is the span a handler opened, carried in the request context
// to the distributed-search wrapper.
type traceCtx struct {
	req, span int64
}

type traceKey struct{}

// probe is the traced stack's shared state: the tracer of the current
// leg (nil when untraced) and counters the wrappers add to.
type probe struct {
	tr        atomic.Pointer[tracer]
	acc       atomic.Pointer[counters]
	respBytes atomic.Int64
	shardNs   atomic.Int64
}

// tracedDistributed wraps the RPC coordinator the engine retrieves
// through, timing each call and reading its SearchStats.
type tracedDistributed struct {
	search.Distributed
	p *probe
}

func (d tracedDistributed) SearchDegradedWithStats(ctx context.Context, q search.Node, k int, opts search.DegradeOptions) ([]search.Result, search.SearchStats, search.PartialInfo, error) {
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	s := d.p.tr.Load().begin(tc.req, tc.span, "search.remote")
	res, st, pi, err := d.Distributed.SearchDegradedWithStats(ctx, q, k, opts)
	s.end()
	var slowest time.Duration
	for _, sh := range st.Shards {
		slowest = max(slowest, sh.Elapsed)
	}
	d.p.shardNs.Add(int64(slowest))
	d.p.acc.Load().addSearch(st)
	return res, st, pi, err
}

// tracedHandler wraps the serving layer's handler with a span and a
// response-size count.
func tracedHandler(h http.Handler, p *probe) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var tc traceCtx
		tr := p.tr.Load()
		if v := req.Header.Get(traceHeader); v != "" {
			a, b, _ := strings.Cut(v, "/")
			tc.req, _ = strconv.ParseInt(a, 10, 64)
			tc.span, _ = strconv.ParseInt(b, 10, 64)
		} else {
			tr = nil // not a load-generator request (a /metrics scrape)
		}
		s := tr.begin(tc.req, tc.span, "serve.handler")
		tc.span = s.id()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req.WithContext(context.WithValue(req.Context(), traceKey{}, tc)))
		s.end()
		p.respBytes.Add(cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// stack is one booted serving topology: shard servers on loopback RPC,
// the coordinator engine, and HTTP.
type stack struct {
	base     string
	eng      *sqe.Engine
	clients  []*rpc.Client
	rpcBytes atomic.Int64
	p        *probe

	closers []func()
	wg      sync.WaitGroup
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.wg.Wait()
}

// listen opens a loopback listener, counting its bytes into n when
// non-nil.
func listen(n *atomic.Int64) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || n == nil {
		return ln, err
	}
	return countingListener{ln, n}, nil
}

// bootTimes are one set-up's component timings.
type bootTimes struct {
	open      time.Duration
	fileBytes int64
}

// bootStack writes and opens one v2 file per shard, serves each over
// the RPC protocol, handshakes a coordinator over them and serves the
// engine over HTTP with the sqe-serve defaults (expansion cache 4096,
// degradation on). A traced stack (p non-nil) wraps the coordinator, the
// handler and the listeners.
func bootStack(ctx context.Context, c *chicCorpus, dir string, p *probe) (_ *stack, bt bootTimes, err error) {
	s := &stack{p: p}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var rpcCount *atomic.Int64
	if p != nil {
		rpcCount = &s.rpcBytes
	}
	sh := index.NewSharded(c.index, numShard)
	groups := make([]*rpc.Group, sh.NumShards())
	for i := range groups {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.v2", i))
		if err := index.WriteFile(path, sh.Shard(i), index.FormatV2); err != nil {
			return nil, bt, err
		}
		start := time.Now()
		ix, err := index.Open(path)
		if err != nil {
			return nil, bt, err
		}
		bt.open += time.Since(start)
		s.closers = append(s.closers, func() { ix.Close() })
		if st, err := os.Stat(path); err == nil {
			bt.fileBytes += st.Size()
		}
		srv := rpc.NewServer()
		search.NewShardService(ix, i, sh.NumShards()).Register(srv)
		ln, err := listen(rpcCount)
		if err != nil {
			return nil, bt, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = srv.Serve(ln)
		}()
		s.closers = append(s.closers, srv.Close)
		cl := rpc.NewClient(ln.Addr().String(), rpc.ClientOptions{MaxRetries: -1})
		s.closers = append(s.closers, cl.Close)
		s.clients = append(s.clients, cl)
		groups[i] = rpc.NewGroup([]*rpc.Client{cl}, rpc.GroupOptions{})
	}
	remote, err := search.NewRemoteSharded(ctx, groups)
	if err != nil {
		return nil, bt, err
	}
	var dist search.Distributed = remote
	if p != nil {
		dist = tracedDistributed{remote, p}
	}
	// The coordinator retrieves only through dist; its own index is an
	// empty placeholder that supplies the analyzer.
	s.eng = sqe.NewEngine(c.graph, sqe.NewIndexBuilder().Build(),
		sqe.WithExpansionCache(4096),
		sqe.WithDistributedSearcher(dist),
		sqe.WithDegradation(sqe.DefaultDegradation()))
	var h http.Handler = serve.New(serve.Config{Engine: s.eng})
	if p != nil {
		h = tracedHandler(h, p)
	}
	ln, err := listen(nil)
	if err != nil {
		return nil, bt, err
	}
	hs := &http.Server{Handler: h}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln)
	}()
	s.closers = append(s.closers, func() { _ = hs.Close() })
	s.base = "http://" + ln.Addr().String()
	return s, bt, nil
}

// httpClient issues the generator's requests over at most conns
// connections.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// path is the request's URL path and query.
func (q request) path(k int) string {
	if q.baseline {
		return fmt.Sprintf("/v1/baseline?q=%s&k=%d", url.QueryEscape(q.query), k)
	}
	return fmt.Sprintf("/v1/search?q=%s&entities=%s&k=%d",
		url.QueryEscape(q.query), url.QueryEscape(strings.Join(q.titles, ",")), k)
}

// httpResults is the part of the /v1/search and /v1/baseline response
// the benchmark checks.
type httpResults struct {
	Results []struct {
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// get issues one request and returns its decoded results; a non-200
// status, a degraded response or an undecodable body is an error.
func get(ctx context.Context, cl *http.Client, base, path, trace string) ([]search.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	if trace != "" {
		req.Header.Set(traceHeader, trace)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if d := resp.Header.Get(serve.DegradedHeader); d != "" {
		return nil, fmt.Errorf("degraded: %s", d)
	}
	var hr httpResults
	if err := json.Unmarshal(body, &hr); err != nil {
		return nil, err
	}
	out := make([]search.Result, len(hr.Results))
	for i, x := range hr.Results {
		out[i] = search.Result{Name: x.Name, Score: x.Score}
	}
	return out, nil
}

// openLoopStats is one open-loop leg's outcome.
type openLoopStats struct {
	rate     float64
	lat      latencies
	all      []float64 // every request's latency from due, failures at +Inf
	lagMs    []float64
	backlog  int64
	ok, fail int64
}

// openLoop offers rate requests per second for d on a fixed schedule,
// from conns goroutines over conns connections. Each request is timed
// from when it was due, so a request the generator could not send on
// time (every connection busy) carries its wait. do serves one request
// and reports whether it succeeded and whether it was a QL_Q request.
func openLoop(rate float64, d time.Duration, conns int, seq []int, do func(i int64, ri int, due, sent time.Time) (ok, baseline bool)) *openLoopStats {
	n := int64(rate * d.Seconds())
	st := &openLoopStats{rate: rate}
	var mu sync.Mutex
	var next, backlog, ok, fail atomic.Int64
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.After(end) {
					backlog.Add(1)
				}
				good, baseline := do(i, seq[int(i)%len(seq)], due, sent)
				took := time.Since(due)
				mu.Lock()
				st.lagMs = append(st.lagMs, ms(sent.Sub(due)))
				if good {
					st.all = append(st.all, ms(took))
					st.lat.add(baseline, took)
				} else {
					st.all = append(st.all, math.Inf(1))
				}
				mu.Unlock()
				if good {
					ok.Add(1)
				} else {
					fail.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	st.backlog, st.ok, st.fail = backlog.Load(), ok.Load(), fail.Load()
	return st
}

// sustained reports whether the leg met the p99 limit without a growing
// backlog.
func (st *openLoopStats) sustained() bool {
	return st.fail == 0 && quantile(st.all, 0.99) <= ms(p99Limit) &&
		float64(st.backlog) <= math.Ceil(st.rate*p99Limit.Seconds())
}

// sustainedRate is the highest offered rate meeting the p99 limit
// without a growing backlog. Between the last sustained rung and the
// first that is not, it interpolates log p99 linearly in the rate to
// where p99 reaches the limit, so the figure moves smoothly with the
// system's speed instead of in whole ladder steps. When the first rung
// already fails, it scales that rung's rate by limit/p99.
func sustainedRate(rungs []*openLoopStats) float64 {
	limit := ms(p99Limit)
	last := rungs[len(rungs)-1]
	if last.sustained() {
		return last.rate // the ladder's top; raise the ladder if this shows
	}
	p99 := quantile(last.all, 0.99)
	if len(rungs) == 1 {
		return last.rate * math.Min(1, limit/p99)
	}
	prev := rungs[len(rungs)-2]
	prevP99 := quantile(prev.all, 0.99)
	if p99 <= limit || prevP99 >= p99 {
		return prev.rate // failed on errors or backlog, not on latency
	}
	f := (math.Log(limit) - math.Log(prevP99)) / (math.Log(p99) - math.Log(prevP99))
	return prev.rate + (last.rate-prev.rate)*math.Max(0, math.Min(1, f))
}

// metricsScrape reads the serving layer's /metrics counters.
func metricsScrape(ctx context.Context, cl *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// stageSeconds sums the pipeline stage counters of a scrape.
func stageSeconds(m map[string]float64, stage string) float64 {
	return m[`sqe_pipeline_stage_seconds_total{stage="`+stage+`"}`]
}

// runServe is the serve_top10_dist workload: HTTP /v1/search (SQE_C) and
// /v1/baseline (QL_Q) at k=10 through a coordinator over two loopback
// RPC shard servers, each serving an mmap'd v2 shard file, offered as an
// open loop from one process over at most one connection per CPU.
func runServe(r *run) error {
	ctx := context.Background()
	c, err := loadCHiC()
	if err != nil {
		return err
	}
	want, err := oracleResults(ctx, c.graph, c.index, c.reqs, serveK)
	if err != nil {
		return err
	}
	seq := schedule(r.seed, len(c.reqs), 50*len(c.reqs))
	conns := clients()
	cl := httpClient(conns)
	defer cl.CloseIdleConnections()
	var p *probe
	if r.traced {
		p = &probe{}
	}

	var setups, opens []float64
	var s *stack
	var fileBytes int64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		ns, bt, err := bootStack(ctx, c, dir, p)
		if err != nil {
			return err
		}
		first := seq[0]
		res, err := get(ctx, cl, ns.base, c.reqs[first].path(serveK), "")
		setups = append(setups, time.Since(start).Seconds())
		opens = append(opens, ms(bt.open))
		if err != nil || !sameResults(res, want[first]) {
			r.fail("setup %d: first request differs from the oracle (err %v)", i, err)
		}
		if s != nil {
			s.close()
			cl.CloseIdleConnections()
		}
		s, fileBytes = ns, bt.fileBytes
	}
	defer s.close()
	c.index = nil // served from the shard files from here on
	header("topology", fmt.Sprintf("HTTP → coordinator → %d loopback RPC shard servers over mmap'd v2 shard files; cache 4096, degradation on", numShard))
	header("load", fmt.Sprintf("latency: closed loop, %d clients; sustained: open loop from one process over %d connections, ladder %v/s, p99 limit %v; traced legs: open loop at %.0f/s",
		clients(), conns, ladder, p99Limit, refRate))

	// Correctness gate over every distinct request; it also warms the
	// expansion cache, as a long-running server's would be.
	got := make([][]search.Result, len(c.reqs))
	for i, q := range c.reqs {
		r.res.Attempted++
		res, err := get(ctx, cl, s.base, q.path(serveK), "")
		if err != nil || !sameResults(res, want[i]) {
			r.res.Failed++
			r.fail("gate: %s %s differs from the oracle (err %v)", q.kind(), q.topic, err)
			continue
		}
		got[i] = res
	}

	// leg runs one open-loop leg against the stack, checking every
	// response against the oracle.
	leg := func(rate float64, d time.Duration, tr *tracer) *openLoopStats {
		st := openLoop(rate, d, conns, seq, func(i int64, ri int, due, sent time.Time) (bool, bool) {
			q := c.reqs[ri]
			root := tr.beginAt(i+1, 0, "request", due)
			tr.beginAt(i+1, root.id(), "load.wait", due).endAt(sent)
			trace := ""
			if tr != nil {
				trace = fmt.Sprintf("%d/%d", i+1, root.id())
			}
			res, err := get(ctx, cl, s.base, q.path(serveK), trace)
			root.end()
			return err == nil && sameResults(res, want[ri]), q.baseline
		})
		r.res.Attempted += st.ok + st.fail
		r.res.Failed += st.fail
		if st.fail > 0 {
			r.fail("open loop at %.0f/s: %d requests failed, were shed or degraded, or differed from the oracle", rate, st.fail)
		}
		return st
	}
	if r.traced {
		return serveTraced(ctx, r, c, s, cl, want, leg, median(opens))
	}

	// Latency and throughput: a closed loop of one client per CPU. With
	// every core kept busy, a request's tail is its share of the CPU
	// with one other request. An open loop at a fixed rate, or a single
	// client, leaves the tail to how fast idle threads wake on a shared
	// host, and its p99s spread 0.25 to 0.9 between runs.
	refDur := r.seconds * 3 / 4
	lat := &latencies{}
	start := time.Now()
	ok, failed, _ := closedLoop(clients(), refDur, seq, func(ri int) bool {
		q := c.reqs[ri]
		t0 := time.Now()
		res, err := get(ctx, cl, s.base, q.path(serveK), "")
		d := time.Since(t0)
		if err != nil || !sameResults(res, want[ri]) {
			return false
		}
		lat.add(q.baseline, d)
		return true
	})
	r.res.Attempted += ok + failed
	r.res.Failed += failed
	if failed > 0 {
		r.fail("closed loop: %d requests failed, were shed or degraded, or differed from the oracle", failed)
	}
	rung := (r.seconds - refDur) / time.Duration(len(ladder))
	var rungs []*openLoopStats
	for _, rate := range ladder {
		// A rung that misses is run once more, and the better attempt
		// counts, so one burst of outside interference does not end the
		// ladder early.
		var st *openLoopStats
		for attempt := 0; attempt < 2 && (st == nil || !st.sustained()); attempt++ {
			next := leg(rate, rung, nil)
			header("rung", fmt.Sprintf("%.0f/s for %v: p99 %.2f ms, backlog %d, failed %d, sustained %v",
				rate, rung, quantile(next.all, 0.99), next.backlog, next.fail, next.sustained()))
			if st == nil || next.sustained() || quantile(next.all, 0.99) < quantile(st.all, 0.99) {
				st = next
			}
		}
		rungs = append(rungs, st)
		if !st.sustained() {
			break
		}
	}
	r.set("setup_s", median(setups), "s")
	r.set("throughput_qps", lat.rate(start, time.Second), "1/s")
	r.set("sustained_rps", sustainedRate(rungs), "1/s")
	lat.report(r)
	ingest, err := c.ingestRate(func(ix *index.Index) error {
		sh := index.NewSharded(ix, numShard)
		for i := 0; i < sh.NumShards(); i++ {
			if err := index.WriteFile(filepath.Join(r.dir, fmt.Sprintf("ingest-%d.v2", i)), sh.Shard(i), index.FormatV2); err != nil {
				return err
			}
		}
		return nil
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

// serveTraced is serve_top10_dist's traced run: an untraced leg through
// the wrapped stack for the overhead baseline, generator lag and
// allocation counts; two sequential passes over the distinct requests
// for the exact-repeat check; and the traced leg at the reference rate.
func serveTraced(ctx context.Context, r *run, c *chicCorpus, s *stack, cl *http.Client, want [][]search.Result,
	leg func(float64, time.Duration, *tracer) *openLoopStats, openMs float64) error {
	d := r.seconds / 3
	before := readProc()
	base := leg(refRate, d, nil)
	reportProc(r, before, readProc(), int(base.ok+base.fail))
	r.set("load.generator_lag_ms", mean(base.lagMs), "ms")
	r.set("load.backlog", float64(base.backlog), "count")

	rpcCalls := func() (calls, retries, failures int64) {
		for _, c := range s.clients {
			st := c.Stats()
			calls += st.Calls
			retries += st.Retries
			failures += st.Failures
		}
		return
	}
	cacheStats := func() (hits, misses int64) {
		cs, _ := s.eng.ExpansionCacheStats()
		return int64(cs.Hits), int64(cs.Misses)
	}

	// Two sequential passes over every distinct request.
	var passes [2]*counters
	for pass := range passes {
		acc := newCounters()
		s.p.acc.Store(acc)
		calls0, _, _ := rpcCalls()
		bytes0 := s.rpcBytes.Load()
		hits0, misses0 := cacheStats()
		m0, err := metricsScrape(ctx, cl, s.base)
		if err != nil {
			return err
		}
		for i, q := range c.reqs {
			r.res.Attempted++
			acc.add("requests", 1)
			res, err := get(ctx, cl, s.base, q.path(serveK), "")
			if err != nil || !sameResults(res, want[i]) {
				r.res.Failed++
				r.fail("repeat pass %d: %s %s differs from the oracle (err %v)", pass, q.kind(), q.topic, err)
			}
		}
		m1, err := metricsScrape(ctx, cl, s.base)
		if err != nil {
			return err
		}
		calls1, _, _ := rpcCalls()
		hits1, misses1 := cacheStats()
		acc.add("rpc_calls", calls1-calls0)
		acc.add("rpc_bytes", s.rpcBytes.Load()-bytes0)
		acc.add("cache_hits", hits1-hits0)
		acc.add("cache_misses", misses1-misses0)
		acc.add("features", int64(m1["sqe_pipeline_features_total"]-m0["sqe_pipeline_features_total"]))
		passes[pass] = acc
	}
	s.p.acc.Store(nil)
	exactRepeat(r, passes[0], passes[1])

	// The traced leg.
	tr := newTracer()
	acc := newCounters()
	s.p.tr.Store(tr)
	s.p.acc.Store(acc)
	s.p.respBytes.Store(0)
	s.p.shardNs.Store(0)
	calls0, retries0, failures0 := rpcCalls()
	bytes0 := s.rpcBytes.Load()
	hits0, misses0 := cacheStats()
	m0, err := metricsScrape(ctx, cl, s.base)
	if err != nil {
		return err
	}
	traced := leg(refRate, d, tr)
	m1, err := metricsScrape(ctx, cl, s.base)
	if err != nil {
		return err
	}
	s.p.tr.Store(nil)
	s.p.acc.Store(nil)
	calls1, retries1, failures1 := rpcCalls()
	hits1, misses1 := cacheStats()

	ts := tr.summarize()
	ts.check(r, "traced")
	n := float64(traced.ok + traced.fail)
	sqec := float64(len(traced.lat.sqec))
	stage := func(name string) float64 { return 1000 * (stageSeconds(m1, name) - stageSeconds(m0, name)) / n }
	handler := ts.durMs["serve.handler"] / n
	remote := ts.durMs["search.remote"] / n
	shardEval := float64(s.p.shardNs.Load()) / 1e6 / n
	acc.add("requests", int64(n))
	searchLayer(r, acc)
	r.set("search.retrieval_ms", stage("retrieval"), "ms")
	r.set("core.expand_ms", stage("motif_search"), "ms")
	r.set("core.query_build_ms", stage("query_build"), "ms")
	r.set("entitylink.link_ms", stage("entity_link"), "ms")
	r.set("core.cache_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)), "ratio")
	r.set("motif.features_per_query", ratio(m1["sqe_pipeline_features_total"]-m0["sqe_pipeline_features_total"], sqec), "count")
	r.set("search.remote_ms", remote, "ms")
	r.set("search.shard_eval_ms", shardEval, "ms")
	r.set("search.remote_overhead_ms", remote-shardEval, "ms")
	r.set("rpc.calls_per_req", float64(calls1-calls0)/n, "count")
	r.set("rpc.bytes_per_req", float64(s.rpcBytes.Load()-bytes0)/n, "bytes")
	r.set("rpc.retries", float64(retries1-retries0), "count")
	r.set("rpc.failures", float64(failures1-failures0), "count")
	r.set("serve.handler_ms", handler, "ms")
	r.set("serve.self_ms", ts.perRequest("serve.handler"), "ms")
	r.set("serve.resp_bytes", float64(s.p.respBytes.Load())/n, "bytes")
	r.set("index.open_ms", openMs, "ms")
	r.set("trace.requests", float64(ts.requests), "count")
	r.set("trace.layer_sum_max_dev", ts.maxDev, "ratio")
	r.set("trace.unattributed_ms", ts.perRequest("request"), "ms")
	r.set("trace.overhead_ratio", median(traced.all)/median(base.all)-1, "ratio")
	header("latency", fmt.Sprintf("median from due: untraced %.3f ms, traced %.3f ms at %.0f/s", median(base.all), median(traced.all), refRate))
	fillPerLayer(r)
	return nil
}
