package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	sqe "repro"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/search"
)

// The live workload's schedule. Flushes happen inside Ingest at the
// index's default threshold. The writer compacts after every
// compactEvery flushes and once more when a pass over the corpus ends.
// After each ingest it deletes a random earlier, still-live document with
// probability deleteProb, and after every readEvery ingests the reader
// issues the schedule's next request against the index as it stands.
const (
	compactEvery = 4
	deleteProb   = 0.005
	readEvery    = 16
	// midCheckpoints is how many seeded mid-pass checkpoints the first
	// pass makes, besides the one at the end of every pass.
	midCheckpoints = 2
	// spotChecks is how many seeded requests a checkpoint compares; the
	// end of the first pass compares every distinct request.
	spotChecks = 8
)

// liveRig is the live_ingest_mixed workload's fixed inputs.
type liveRig struct {
	graph *sqe.Graph
	docs  []sqe.DemoDoc
	reqs  []request
	qrels eval.Qrels
}

// livePass is one pass of the writer over the corpus into a fresh live
// index, and what it measured.
type livePass struct {
	dir  string
	live *sqe.LiveIndex
	eng  *sqe.Engine
	// rep replays reader requests against this pass's index.
	rep *replayer

	c         *counters
	flushMs   []float64
	compactMs []float64
	// writeBusy and readBusy sum the time spent in the writer's and the
	// reader's calls into the program; reads counts the reader's
	// requests.
	writeBusy, readBusy time.Duration
	reads               int
	userBytes           int64
	spaceAmp            float64
	complete            bool
	// seen holds the files already counted into bytes_written, by name,
	// size, modification time and inode, so rewrites of the manifest
	// count again.
	seen map[string]bool
	// alive lists the ingested documents in ingest order; deleted marks
	// the tombstoned ones.
	alive   []sqe.DemoDoc
	deleted []bool
}

// countWrites adds the files of the pass's directory not seen before to
// bytes_written.
func (lp *livePass) countWrites() {
	ents, err := os.ReadDir(lp.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		key := fmt.Sprintf("%s/%d/%d", e.Name(), info.Size(), info.ModTime().UnixNano())
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			key += fmt.Sprintf("/%d", st.Ino)
		}
		if !lp.seen[key] {
			lp.seen[key] = true
			lp.c.add("bytes_written", info.Size())
		}
	}
}

// openPass opens a fresh live index and engine.
func (lr *liveRig) openPass(dir string) (*livePass, error) {
	live, err := sqe.OpenLiveIndex(dir, 0)
	if err != nil {
		return nil, err
	}
	lp := &livePass{dir: dir, live: live, eng: sqe.NewLiveEngine(lr.graph, live), c: newCounters(), seen: map[string]bool{}}
	ss := search.NewSegmentedSearcher(live)
	lp.rep = &replayer{graph: lr.graph, exp: lp.eng.Expander(), search: ss.SearchWithStatsContext, retrieval: "search.segment_retrieval"}
	return lp, nil
}

// timed runs f and adds its duration to *busy.
func timed(busy *time.Duration, f func() error) error {
	t0 := time.Now()
	err := f()
	*busy += time.Since(t0)
	return err
}

// pass streams the corpus through Engine.Ingest with the seeded delete
// schedule and the compaction cadence, calling read after every
// readEvery ingests and stopping early at deadline. check runs at each
// seeded checkpoint (positions, in ingested documents) and at the end of
// a complete pass. Traced passes also time flushes and compactions and
// count bytes written.
func (lp *livePass) pass(docs []sqe.DemoDoc, seed int64, traced bool, deadline time.Time, checkAt map[int]bool,
	read func(*livePass) error, check func(*livePass, bool) error, final bool) error {
	rng := rand.New(rand.NewSource(seed))
	for i, d := range docs {
		if time.Now().After(deadline) {
			return nil
		}
		t0 := time.Now()
		if err := timed(&lp.writeBusy, func() error { return lp.eng.Ingest(d.Name, d.Text) }); err != nil {
			return err
		}
		lp.alive = append(lp.alive, d)
		lp.deleted = append(lp.deleted, false)
		lp.userBytes += int64(len(d.Text))
		lp.c.add("ingested", 1)
		if (i+1)%index.DefaultFlushDocs == 0 {
			lp.c.add("flushes", 1)
			lp.c.add("segments", 1)
			if traced {
				lp.flushMs = append(lp.flushMs, ms(time.Since(t0)))
				lp.countWrites()
			}
			if lp.c.get("flushes")%compactEvery == 0 {
				if err := lp.compact(traced); err != nil {
					return err
				}
			}
		}
		if rng.Float64() < deleteProb {
			if err := lp.deleteOne(rng.Intn(len(lp.alive)), traced); err != nil {
				return err
			}
		}
		if read != nil && (i+1)%readEvery == 0 {
			if err := read(lp); err != nil {
				return err
			}
		}
		if checkAt[i+1] {
			if err := check(lp, false); err != nil {
				return err
			}
		}
	}
	if err := timed(&lp.writeBusy, lp.eng.Flush); err != nil {
		return err
	}
	if err := lp.compact(traced); err != nil {
		return err
	}
	lp.complete = true
	lp.measureSpace()
	return check(lp, final)
}

// deleteOne tombstones the j-th ingested document unless it is already
// deleted.
func (lp *livePass) deleteOne(j int, traced bool) error {
	if lp.deleted[j] {
		return nil
	}
	var n int
	err := timed(&lp.writeBusy, func() (err error) {
		n, err = lp.eng.Delete(lp.alive[j].Name)
		return err
	})
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("delete %s removed %d documents, want 1", lp.alive[j].Name, n)
	}
	lp.deleted[j] = true
	lp.c.add("deleted", 1)
	if traced {
		lp.countWrites()
	}
	return nil
}

func (lp *livePass) compact(traced bool) error {
	t0 := time.Now()
	if err := timed(&lp.writeBusy, lp.eng.CompactSegments); err != nil {
		return err
	}
	lp.c.add("compactions", 1)
	lp.c.add("segments", 1)
	if traced {
		lp.compactMs = append(lp.compactMs, ms(time.Since(t0)))
		lp.countWrites()
	}
	return nil
}

// measureSpace sets spaceAmp: bytes on disk per byte of live text.
func (lp *livePass) measureSpace() {
	var liveText int64
	for i, d := range lp.alive {
		if !lp.deleted[i] {
			liveText += int64(len(d.Text))
		}
	}
	lp.spaceAmp = float64(dirBytes(lp.dir)) / float64(liveText)
}

// survivors indexes the pass's surviving documents, in ingest order,
// into a monolithic in-memory index.
func (lp *livePass) survivors() *index.Index {
	b := sqe.NewIndexBuilder()
	for i, d := range lp.alive {
		if !lp.deleted[i] {
			b.Add(d.Name, d.Text)
		}
	}
	return b.Build()
}

// runLive is the live_ingest_mixed workload: a writer streams the Image
// CLEF demo corpus into a live segmented index (seeded deletes, flushes
// at the default threshold, a compaction every few flushes) and, after
// every readEvery ingests, a reader issues SQE_C or QL_Q at depth 1000
// through Engine.Do against the index as it stands. A pass over the
// corpus ends with a final compaction; the writer then starts over in a
// fresh index until the time is up.
func runLive(r *run) error {
	ctx := context.Background()
	start := time.Now()
	env, docs, err := sqe.GenerateDemoCorpus(sqe.DemoDefault)
	if err != nil {
		return err
	}
	lr := &liveRig{graph: env.Engine.Graph(), docs: docs, qrels: eval.Qrels{}}
	var textBytes int64
	for _, d := range docs {
		textBytes += int64(len(d.Text))
	}
	for _, q := range env.Queries {
		lr.reqs = append(lr.reqs,
			request{topic: q.ID, query: q.Text, titles: q.EntityTitles},
			request{topic: q.ID, query: q.Text, baseline: true})
		lr.qrels[q.ID] = q.Relevant
	}
	header("corpus", fmt.Sprintf("%s demo corpus: %d docs, %d text bytes, %d topics, %d distinct requests",
		env.DatasetName, len(docs), textBytes, len(env.Queries), len(lr.reqs)))
	header("corpus_gen_s", fmt.Sprintf("%.3f (not part of setup_s)", time.Since(start).Seconds()))
	header("schedule", fmt.Sprintf("flush every %d docs, compact every %d flushes and at the end of a pass, delete probability %.2f per ingest, one read every %d ingests",
		index.DefaultFlushDocs, compactEvery, deleteProb, readEvery))
	header("clients", "1 writer and 1 reader, interleaved on one goroutine")
	seq := schedule(r.seed, len(lr.reqs), 50*len(lr.reqs))

	// Set-up is a restart: reopen a live index whose directory holds the
	// committed corpus (written once, untimed), build the engine and
	// answer the schedule's first request.
	recovered := filepath.Join(r.dir, "recover")
	lp, err := lr.openPass(recovered)
	if err != nil {
		return err
	}
	for _, d := range docs {
		if err := lp.eng.Ingest(d.Name, d.Text); err != nil {
			return err
		}
	}
	if err := lp.eng.Flush(); err != nil {
		return err
	}
	lp.live.Close()
	var setups, opens []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		live, err := sqe.OpenLiveIndex(recovered, 0)
		if err != nil {
			return err
		}
		opened := time.Since(start)
		eng := sqe.NewLiveEngine(lr.graph, live)
		_, err = eng.Do(ctx, lr.reqs[seq[0]].search(paperK))
		setups = append(setups, time.Since(start).Seconds())
		opens = append(opens, ms(opened))
		live.Close()
		if err != nil {
			return err
		}
	}

	passNo := 0
	newDir := func() string {
		passNo++
		return filepath.Join(r.dir, fmt.Sprintf("pass-%d", passNo))
	}

	// check compares the live engine with an oracle over the surviving
	// documents: every distinct request when all is set (and the
	// quality metrics then come from the live rankings), otherwise a
	// seeded few.
	checkRng := rand.New(rand.NewSource(r.seed + 1))
	qualityDone := false
	check := func(lp *livePass, all bool) error {
		oracle := sqe.NewEngine(lr.graph, lp.survivors(), sqe.WithPruning(false))
		idx := checkRng.Perm(len(lr.reqs))
		if !all {
			idx = idx[:spotChecks]
		}
		got := make([][]search.Result, len(lr.reqs))
		for _, i := range idx {
			q := lr.reqs[i]
			r.res.Attempted++
			want, err := oracle.Do(ctx, q.search(paperK))
			if err != nil {
				return err
			}
			resp, err := lp.eng.Do(ctx, q.search(paperK))
			if err != nil || !sameResults(resp.Results, want.Results) {
				r.res.Failed++
				r.fail("checkpoint after %d ingests: %s %s differs from the survivors oracle (err %v)", lp.c.get("ingested"), q.kind(), q.topic, err)
				continue
			}
			if r.traced {
				res, err := lp.rep.replay(ctx, nil, 0, q, paperK, nil)
				if err != nil || !sameResults(res, want.Results) {
					r.res.Failed++
					r.fail("checkpoint: replay of %s %s differs from Engine.Do (err %v)", q.kind(), q.topic, err)
				}
			}
			got[i] = resp.Results
		}
		if all && !qualityDone && !r.traced {
			quality(r, lr.reqs, got, lr.qrels)
			qualityDone = true
		}
		return nil
	}

	if r.traced {
		return liveTraced(ctx, r, lr, seq, newDir, check, median(opens))
	}
	lc := mixedLeg(ctx, r, lr, seq, r.seconds, false, newDir, check)
	if lc.err != nil {
		return lc.err
	}
	r.set("setup_s", median(setups), "s")
	r.set("throughput_qps", lc.qps, "1/s")
	r.set("sustained_rps", lc.qps, "1/s")
	lc.lat.report(r)
	r.set("ingest_docs_per_s", lc.ingestRate, "1/s")
	r.set("space_amp", lc.spaceAmp, "ratio")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// legResult is one mixed read/write leg's outcome.
type legResult struct {
	err        error
	lat        *latencies
	qps        float64
	ingestRate float64
	spaceAmp   float64
	passes     []*livePass
	ts         traceSummary
	acc        *counters
	segments   []float64
	proc       [2]procCounters
}

// mixedLeg runs passes of the writer, each with its reads, for d. The
// writer and the reader take turns on one goroutine, so every read sees
// an index state fixed by the seed: buffered documents, segments and
// tombstones included.
func mixedLeg(ctx context.Context, r *run, lr *liveRig, seq []int, d time.Duration, traced bool,
	newDir func() string, check func(*livePass, bool) error) legResult {
	res := legResult{lat: &latencies{}, acc: newCounters()}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var reqID int64
	var failed int64
	read := func(lp *livePass) error {
		q := lr.reqs[seq[reqID%int64(len(seq))]]
		reqID++
		var err error
		var took time.Duration
		if traced {
			sn := lp.live.Acquire()
			res.segments = append(res.segments, float64(sn.NumSegments()))
			sn.Release()
			took = -lp.readBusy
			err = timed(&lp.readBusy, func() error {
				_, err := lp.rep.replay(ctx, tr, reqID, q, paperK, res.acc)
				return err
			})
			took += lp.readBusy
			res.acc.add("requests", 1)
		} else {
			took = -lp.readBusy
			err = timed(&lp.readBusy, func() error {
				_, err := lp.eng.Do(ctx, q.search(paperK))
				return err
			})
			took += lp.readBusy
		}
		if err != nil {
			failed++
			return nil
		}
		lp.reads++
		res.lat.add(q.baseline, took)
		return nil
	}

	rng := rand.New(rand.NewSource(r.seed))
	deadline := time.Now().Add(d)
	res.proc[0] = readProc()
	var ingested int64
	for n := 0; time.Now().Before(deadline); n++ {
		checkAt := map[int]bool{}
		if n == 0 {
			for _, p := range rng.Perm(len(lr.docs))[:midCheckpoints] {
				checkAt[p+1] = true
			}
		}
		lp, err := lr.openPass(newDir())
		if err != nil {
			res.err = err
			break
		}
		err = lp.pass(lr.docs, rng.Int63(), traced, deadline, checkAt, read, check, n == 0)
		lp.live.Close()
		ingested += lp.c.get("ingested")
		res.passes = append(res.passes, lp)
		if err != nil {
			res.err = err
			break
		}
	}
	res.proc[1] = readProc()
	r.res.Attempted += reqID + ingested
	r.res.Failed += failed
	if failed > 0 {
		r.fail("%d reader requests failed", failed)
	}
	// Rates are medians over the complete passes, so a burst of outside
	// interference moves one pass, not the result.
	var qps, ingest []float64
	for _, p := range res.passes {
		if p.complete {
			qps = append(qps, float64(p.reads)/p.readBusy.Seconds())
			ingest = append(ingest, float64(p.c.get("ingested"))/p.writeBusy.Seconds())
			res.spaceAmp = p.spaceAmp
		}
	}
	if len(qps) == 0 && res.err == nil {
		res.err = fmt.Errorf("no pass over the corpus completed in %v; raise --seconds", d)
	}
	res.qps, res.ingestRate = median(qps), median(ingest)
	if traced {
		res.ts = tr.summarize()
	}
	header("leg", fmt.Sprintf("traced=%v: %d passes (%d complete), %d ingested, %d reads",
		traced, len(res.passes), len(qps), ingested, reqID))
	return res
}

// liveTraced is live_ingest_mixed's traced run: two writer-only passes
// with one seed for the exact-repeat check, the traced mixed leg, and an
// untraced mixed leg for the overhead baseline and allocation counts.
func liveTraced(ctx context.Context, r *run, lr *liveRig, seq []int, newDir func() string,
	check func(*livePass, bool) error, openMs float64) error {
	var passes [2]*counters
	for i := range passes {
		lp, err := lr.openPass(newDir())
		if err != nil {
			return err
		}
		err = lp.pass(lr.docs, r.seed, true, time.Now().Add(time.Hour), nil, nil, func(*livePass, bool) error { return nil }, false)
		lp.live.Close()
		if err != nil {
			return err
		}
		passes[i] = lp.c
	}
	exactRepeat(r, passes[0], passes[1])

	leg := r.seconds / 2
	traced := mixedLeg(ctx, r, lr, seq, leg, true, newDir, check)
	if traced.err != nil {
		return traced.err
	}
	base := mixedLeg(ctx, r, lr, seq, leg, false, newDir, check)
	if base.err != nil {
		return base.err
	}
	reportProc(r, base.proc[0], base.proc[1], base.lat.count())
	traced.ts.check(r, "traced")

	var flush, compact []float64
	var written, user int64
	for _, lp := range traced.passes {
		flush = append(flush, lp.flushMs...)
		compact = append(compact, lp.compactMs...)
		written += lp.c.get("bytes_written")
		user += lp.userBytes
	}
	ts := traced.ts
	searchLayer(r, traced.acc)
	r.set("search.segment_retrieval_ms", ts.perRequest("search.segment_retrieval"), "ms")
	r.set("core.expand_ms", ts.perRequest("core.expand"), "ms")
	r.set("core.query_build_ms", ts.perRequest("core.query_build"), "ms")
	r.set("core.splice_ms", ts.perRequest("core.splice"), "ms")
	r.set("entitylink.link_ms", ts.perRequest("entitylink.link"), "ms")
	r.set("trace.unattributed_ms", ts.perRequest("request"), "ms")
	r.set("motif.features_per_query", ratio(float64(traced.acc.get("features")), float64(len(traced.lat.sqec))), "count")
	r.set("index.flush_ms", mean(flush), "ms")
	r.set("index.compact_ms", mean(compact), "ms")
	r.set("index.write_amp", ratio(float64(written), float64(user)), "ratio")
	r.set("index.segments_at_query", mean(traced.segments), "count")
	r.set("index.open_ms", openMs, "ms")
	r.set("trace.requests", float64(ts.requests), "count")
	r.set("trace.layer_sum_max_dev", ts.maxDev, "ratio")
	r.set("trace.overhead_ratio", 1-traced.qps/base.qps, "ratio")
	fillPerLayer(r)
	return nil
}
