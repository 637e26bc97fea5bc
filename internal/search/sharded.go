package search

import (
	"context"

	"repro/internal/index"
)

// ShardedSearcher evaluates structured queries against an index.Sharded,
// fanning the query tree out to one evaluator per shard and merging the
// per-shard bounded top-k heaps into the final ranking. Results and
// scores are bit-identical to evaluating the same query on the
// unsharded index, for every retrieval model — the argument is the
// partitioned core's (see partitioned.run). What is particular to a
// shard is the DocID map: within a shard, ascending local DocIDs are
// ascending global DocIDs (round-robin assignment), so the per-shard
// top k is exactly the shard's slice of the global ordering.
type ShardedSearcher struct {
	partitioned
	sh *index.Sharded
}

// NewShardedSearcher returns a ShardedSearcher over sh with the default μ.
func NewShardedSearcher(sh *index.Sharded) *ShardedSearcher {
	ss := &ShardedSearcher{sh: sh}
	ss.Mu = DefaultMu
	ss.open = func(q Node) ([]partition, func(), error) {
		n := sh.NumShards()
		ps := make([]shardPart, n)
		parts := make([]partition, n)
		for i := range ps {
			ps[i] = newShardPart(sh.Shard(i), i, n, q)
			parts[i] = &ps[i]
		}
		return parts, nil, nil
	}
	return ss
}

// Sharded returns the underlying sharded index.
func (ss *ShardedSearcher) Sharded() *index.Sharded { return ss.sh }

// NumShards returns the shard count S.
func (ss *ShardedSearcher) NumShards() int { return ss.sh.NumShards() }

// shardPart is shard `shard` of an n-way round-robin partition,
// evaluated in this process — by a ShardedSearcher, or by the shard
// server hosting it (ShardService). Local DocID d is global d·n+shard,
// the index.Sharded.GlobalDoc map.
type shardPart struct {
	localPart
	shard, n int
}

func newShardPart(ix *index.Index, shard, n int, q Node) shardPart {
	return shardPart{localPart: localPart{s: Searcher{ix: ix}, q: q}, shard: shard, n: n}
}

func (p *shardPart) size() (int, int64) { return p.s.ix.NumDocs(), p.s.ix.TotalTokens() }

func (p *shardPart) stats(context.Context) ([]LeafStats, error) {
	p.flatten()
	return p.leafStats(), nil
}

func (p *shardPart) eval(ctx context.Context, spec *evalSpec, st *SearchStats) ([]Result, error) {
	return evalShardGuarded(func() ([]Result, error) { return p.evalLocal(ctx, spec, st) })
}

// evalLocal is eval without the fault point and panic guard — what a
// shard server runs (the RPC server contains its own panics).
func (p *shardPart) evalLocal(ctx context.Context, spec *evalSpec, st *SearchStats) ([]Result, error) {
	res, err := p.score(ctx, spec, spec.k, st)
	for r := range res {
		res[r].Doc = res[r].Doc*index.DocID(p.n) + index.DocID(p.shard)
	}
	return res, err
}
