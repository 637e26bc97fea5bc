package search

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/index"
)

// partition is one slice of a partitioned collection: an in-process
// shard (shardPart), a segment of a live index (segmentPart) or a shard
// server behind RPC (remotePart). A search opens fresh partitions bound
// to its query and drives each through one stats call and at most one
// eval call, each possibly retried (see partitioned.run).
type partition interface {
	// size reports the partition's documents and tokens — its share of
	// the corpus totals.
	size() (docs int, toks int64)
	// stats flattens the query against the partition and reports each
	// leaf's local collection statistics, in flatten order.
	stats(ctx context.Context) ([]LeafStats, error)
	// eval scores the partition under the global statistics and returns
	// its top spec.k with global DocIDs, ordered (score desc, DocID
	// asc). st, when non-nil, receives the evaluator's counters.
	eval(ctx context.Context, spec *evalSpec, st *SearchStats) ([]Result, error)
	// retryable reports whether a failed call may succeed when re-run.
	retryable(err error) bool
}

// evalSpec is what phase 3 hands every partition: the scoring
// configuration, the depth and the global collection statistics.
type evalSpec struct {
	evalConfig
	k         int
	numDocs   int
	totalToks int64
	overrides []LeafOverride
}

// collStats derives the scorer's corpus statistics from the global
// totals. avgDocLen is the division index.Index.AvgDocLen evaluates, so
// every partition builds its scorer over bit-identical inputs.
func (s *evalSpec) collStats() collStats {
	cs := collStats{numDocs: float64(s.numDocs)}
	if s.numDocs > 0 {
		cs.avgDocLen = float64(s.totalToks) / float64(s.numDocs)
	}
	return cs
}

// partitioned is the one core behind every partitioned topology.
// ShardedSearcher, SegmentedSearcher and RemoteSharded embed it and
// supply only how a search opens its partitions; the configuration
// fields and the Distributed search methods live here.
//
// Like Searcher, the configuration fields are read on every call and
// must not be mutated concurrently with searches.
type partitioned struct {
	// Mu is the Dirichlet smoothing parameter; zero means DefaultMu.
	Mu float64
	// Model selects the retrieval function (default Dirichlet QL).
	Model Model
	// Params holds the other models' parameters.
	Params ModelParams
	// DisablePruning turns off MaxScore pruning in every partition's
	// evaluator (see Searcher.DisablePruning). With pruning on, each
	// partition prunes against its own top-k threshold — shared-nothing,
	// no cross-partition coordination — which is safe because every
	// partition must surface its local top k for the merge regardless of
	// what the others hold. Results are bit-identical either way.
	DisablePruning bool
	// forcePrune mirrors Searcher.forcePrune for the in-process
	// partitions (test-only; it does not cross the wire).
	forcePrune bool
	// Sem, when non-nil, bounds how many partition calls run on extra
	// goroutines (it is shared with the engine's SQE_C run pool). The
	// fan-out only try-acquires: when the pool is saturated the
	// partition runs inline on the caller's goroutine, so a caller that
	// already holds a slot can always finish — sharing the semaphore
	// cannot deadlock.
	Sem chan struct{}
	// open returns the partitions one search of q runs over, plus a
	// release func (nil when there is nothing to release).
	open func(q Node) ([]partition, func(), error)
}

// Configure implements Distributed.
func (d *partitioned) Configure(cfg ShardConfig) {
	d.Mu = cfg.Mu
	d.Model = cfg.Model
	d.Params = cfg.Params
	d.DisablePruning = cfg.DisablePruning
	d.Sem = cfg.Sem
}

// SearchContext returns the global top k (score desc, DocID asc);
// cancellation propagates into every partition's evaluation.
func (d *partitioned) SearchContext(ctx context.Context, q Node, k int) ([]Result, error) {
	return d.search(ctx, q, k, nil, nil, nil)
}

// SearchWithStatsContext is SearchContext plus instrumentation,
// including one SearchStats.Shards entry per partition.
func (d *partitioned) SearchWithStatsContext(ctx context.Context, q Node, k int) ([]Result, SearchStats, error) {
	var st SearchStats
	start := time.Now()
	res, err := d.search(ctx, q, k, &st, nil, nil)
	st.Elapsed = time.Since(start)
	return res, st, err
}

// SearchDegraded is SearchContext with graceful degradation:
// per-partition deadlines, retries, and — under opts.AllowPartial —
// partial merges that drop failed partitions instead of failing the
// query.
//
// A partition that fails evaluation is dropped AFTER the global
// statistics override, so every survivor scored with the full global
// statistics and the partial ranking is precisely the complete ranking
// minus the dropped partitions' documents. A partition that fails the
// stats phase never contributed statistics; it is excluded from the
// corpus totals too, so the survivors score as the collection without
// it (the weaker tier, reported with a "stats phase: " error prefix).
// A search where every partition fails returns the first error.
func (d *partitioned) SearchDegraded(ctx context.Context, q Node, k int, opts DegradeOptions) ([]Result, PartialInfo, error) {
	var pi PartialInfo
	res, err := d.search(ctx, q, k, nil, &opts, &pi)
	return res, pi, err
}

// SearchDegradedWithStats is SearchDegraded plus instrumentation.
// In-process partitions that were dropped still report the counters for
// the work they did before failing.
func (d *partitioned) SearchDegradedWithStats(ctx context.Context, q Node, k int, opts DegradeOptions) ([]Result, SearchStats, PartialInfo, error) {
	var st SearchStats
	var pi PartialInfo
	start := time.Now()
	res, err := d.search(ctx, q, k, &st, &opts, &pi)
	st.Elapsed = time.Since(start)
	return res, st, pi, err
}

// config resolves the scoring configuration for one search.
func (d *partitioned) config() evalConfig {
	params := d.Params.withDefaults()
	if d.Mu > 0 {
		params.Mu = d.Mu
	}
	return evalConfig{model: d.Model, params: params, disablePruning: d.DisablePruning, forcePrune: d.forcePrune}
}

// search opens q's partitions and runs the phases over them.
func (d *partitioned) search(ctx context.Context, q Node, k int, st *SearchStats, opts *DegradeOptions, pi *PartialInfo) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	parts, release, err := d.open(q)
	if err != nil {
		return nil, err
	}
	if release != nil {
		defer release()
	}
	return d.run(ctx, parts, k, st, opts, pi)
}

// run is the four-phase partitioned evaluation. Its ranking and scores
// are bit-identical to evaluating the query on one index holding every
// partition's documents, for every retrieval model:
//
//  1. stats — each partition flattens the query and reports per-leaf
//     cf/df. Flatten is structure-driven (leaf set, order and weights
//     depend only on the query tree), so the leaf lists align.
//  2. override — each leaf's statistics become their exact sums over
//     the partitions, taken in fixed partition order (the float df sum
//     is order-sensitive at the ULP level), and its collection
//     probability is floored over the global token count.
//  3. eval — each partition overrides its leaves with the global
//     statistics, builds its scorer from the global document and token
//     counts and evaluates its local top k. A partition's ascending
//     local DocIDs are ascending global DocIDs, so its top k under
//     (score desc, local DocID asc) is exactly its slice of the global
//     ordering.
//  4. merge — (score desc, global DocID asc), truncated to k.
//
// opts/pi, when non-nil, enable graceful degradation (see
// SearchDegraded).
func (d *partitioned) run(ctx context.Context, parts []partition, k int, st *SearchStats, opts *DegradeOptions, pi *PartialInfo) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(parts)
	if n == 0 {
		return nil, nil
	}
	// Each partition's goroutine writes only its own slot. dropped[i] is
	// the failure that dropped partition i (nil while it survives);
	// walking it in index order keeps DroppedShards ascending across
	// both phases.
	dropped := make([]error, n)
	retries := make([]int, n)
	errs := make([]error, n)
	if pi != nil {
		defer func() {
			for i, err := range dropped {
				pi.Retries += retries[i]
				if err != nil {
					pi.DroppedShards = append(pi.DroppedShards, i)
					pi.ShardErrors = append(pi.ShardErrors, err.Error())
				}
			}
		}()
	}

	// Phase 1: per-partition flatten and leaf statistics, in parallel —
	// flatten materialises phrase/window postings, which for expanded
	// queries is a large share of the evaluation cost.
	leafStats := make([][]LeafStats, n)
	fanOutShards(d.Sem, n, func(i int) {
		retries[i], errs[i] = withRetries(ctx, opts, parts[i].retryable, func(ctx context.Context) (err error) {
			leafStats[i], err = parts[i].stats(ctx)
			return err
		})
	})
	if err := settle(ctx, opts, errs, dropped, "stats phase: "); err != nil {
		return nil, err
	}
	nLeaves, ref := -1, -1
	for i, ls := range leafStats {
		if dropped[i] != nil {
			continue
		}
		if nLeaves < 0 {
			nLeaves, ref = len(ls), i
		} else if len(ls) != nLeaves {
			// A divergence means a partition was built against a different
			// analyzer and scoring would be silently wrong.
			return nil, fmt.Errorf("search: partition %d flattened %d leaves, partition %d flattened %d", i, len(ls), ref, nLeaves)
		}
	}
	if nLeaves == 0 {
		return nil, nil
	}
	if st != nil {
		st.Leaves = nLeaves
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: the global-stats override, over the partitions that
	// answered phase 1. Integer sums are order-independent, so cf and
	// the corpus totals equal the single-index values bit for bit.
	spec := &evalSpec{evalConfig: d.config(), k: k, overrides: make([]LeafOverride, nLeaves)}
	for i, p := range parts {
		if dropped[i] == nil {
			docs, toks := p.size()
			spec.numDocs += docs
			spec.totalToks += toks
		}
	}
	for li := range spec.overrides {
		o := &spec.overrides[li]
		for i := range parts {
			if dropped[i] == nil {
				o.CF += leafStats[i][li].CF
				o.DF += leafStats[i][li].DF
			}
		}
		o.CollProb = index.FloorProb(o.CF, spec.totalToks)
	}

	// Phase 3: per-partition evaluation under the global statistics.
	results := make([][]Result, n)
	var partStats []SearchStats
	if st != nil {
		partStats = make([]SearchStats, n)
	}
	clear(errs)
	fanOutShards(d.Sem, n, func(i int) {
		if dropped[i] != nil {
			return
		}
		var sst *SearchStats
		var start time.Time
		if st != nil {
			sst = &partStats[i]
			start = time.Now()
		}
		r, err := withRetries(ctx, opts, parts[i].retryable, func(ctx context.Context) (err error) {
			results[i], err = parts[i].eval(ctx, spec, sst)
			return err
		})
		retries[i] += r
		errs[i] = err
		if sst != nil {
			sst.Elapsed = time.Since(start)
		}
	})
	if st != nil {
		st.Shards = make([]ShardStats, n)
		for i := range partStats {
			ps := &partStats[i]
			st.addCounters(ps)
			st.Shards[i] = ShardStats{
				Elapsed:            ps.Elapsed,
				CandidatesExamined: ps.CandidatesExamined,
				PostingsAdvanced:   ps.PostingsAdvanced,
				DocsSkipped:        ps.DocsSkipped,
			}
		}
	}
	if err := settle(ctx, opts, errs, dropped, ""); err != nil {
		return nil, err
	}

	// Phase 4: merge the ≤ n·k survivors by the global result ordering
	// and truncate. The merge accumulates into a pooled backing; only the
	// final ≤ k slice is copied out (results outlive the scratch).
	msc := getScratch()
	defer putScratch(msc)
	all := msc.merged[:0]
	for i, res := range results {
		if dropped[i] == nil {
			all = append(all, res...)
		}
	}
	msc.merged = all
	sort.Sort(&resultSorter{all})
	if len(all) > k {
		all = all[:k]
	}
	if len(all) == 0 {
		return nil, nil
	}
	out := make([]Result, len(all))
	copy(out, all)
	return out, nil
}

// localPart is what every partition evaluated by this process shares —
// in-process shards and segments, and the shard a shard server hosts:
// one *index.Index slice, the query's leaves flattened against it, and
// the override-and-evaluate step.
type localPart struct {
	s      Searcher
	q      Node
	leaves []leaf
}

func (p *localPart) flatten() { p.s.flatten(p.q, 1, &p.leaves) }

// leafStats reports the flattened leaves' cf/df.
func (p *localPart) leafStats() []LeafStats {
	out := make([]LeafStats, len(p.leaves))
	for i := range p.leaves {
		out[i] = LeafStats{CF: p.leaves[i].cf, DF: p.leaves[i].df}
	}
	return out
}

// score overrides every leaf's statistics with the global ones and
// evaluates the slice's top k in local DocIDs. The overrides must align
// with the flattened leaves.
func (p *localPart) score(ctx context.Context, spec *evalSpec, k int, st *SearchStats) ([]Result, error) {
	for i, o := range spec.overrides {
		l := &p.leaves[i]
		l.cf, l.df, l.collProb = o.CF, o.DF, o.CollProb
	}
	cs := spec.collStats()
	// Per-leaf caches derive from the GLOBAL df just written, so every
	// partition scores with the same cached values.
	prepareLeaves(spec.model, cs, p.leaves)
	sc := getScratch()
	defer putScratch(sc)
	return spec.evaluate(ctx, p.s.ix, p.leaves, k, cs, buildScorer(spec.model, spec.params, cs), st, sc)
}

// retryable retries injected transient faults.
func (p *localPart) retryable(err error) bool { return fault.IsTransient(err) }
