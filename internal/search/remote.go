package search

import (
	"context"
	"fmt"

	"repro/internal/index"
	"repro/internal/rpc"
)

// RemoteSharded is the coordinator side of shard-per-process serving:
// it evaluates structured queries across N shard servers (each a
// ShardService over one slice of an index.Sharded partition, fronted by
// a replica Group) and merges the per-shard top-k heaps into the final
// ranking.
//
// Scores are bit-identical to the in-process ShardedSearcher over the
// same corpus and shard count, because both run the partitioned core
// and every shard server evaluates through the same shardPart code —
// only the transport differs (remotePart): phase 1 is the shard.stats
// call, phase 3 the shard.eval call carrying the global statistics,
// and each shard answers in global DocIDs with resolved names.
//
// Over RPC the stats phase can fail too. A shard that never answered
// shard.stats is dead, not merely slow, and cannot contribute
// statistics; under opts.AllowPartial it is excluded from the corpus
// entirely — the weaker degradation tier (see SearchDegraded). Its
// result is still deterministic: it equals single-process search over
// the surviving shards.
type RemoteSharded struct {
	partitioned
	groups []*rpc.Group
	infos  []InfoResponse
}

// NewRemoteSharded performs the handshake against one replica group per
// shard: every group must answer shard.info with the expected shard
// index and shard count. The per-shard corpus totals are retained for
// the global statistics sums.
func NewRemoteSharded(ctx context.Context, groups []*rpc.Group) (*RemoteSharded, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("search: remote coordinator needs at least one shard group")
	}
	rs := &RemoteSharded{groups: groups, infos: make([]InfoResponse, len(groups))}
	for i, g := range groups {
		out, err := g.Call(ctx, MethodInfo, struct{}{}, func() any { return &InfoResponse{} })
		if err != nil {
			return nil, fmt.Errorf("search: shard %d handshake: %w", i, err)
		}
		info := *out.(*InfoResponse)
		if info.Shard != i || info.NumShards != len(groups) {
			return nil, fmt.Errorf("search: shard group %d serves shard %d/%d, want %d/%d",
				i, info.Shard, info.NumShards, i, len(groups))
		}
		rs.infos[i] = info
	}
	rs.open = func(q Node) ([]partition, func(), error) {
		wq, err := EncodeNode(q)
		if err != nil {
			return nil, nil, err
		}
		ps := make([]remotePart, len(groups))
		parts := make([]partition, len(groups))
		for i := range ps {
			ps[i] = remotePart{g: groups[i], info: &rs.infos[i], q: wq}
			parts[i] = &ps[i]
		}
		return parts, nil, nil
	}
	return rs, nil
}

// NumShards returns the shard count S.
func (rs *RemoteSharded) NumShards() int { return len(rs.groups) }

// Close closes every shard group's clients.
func (rs *RemoteSharded) Close() {
	for _, g := range rs.groups {
		g.Close()
	}
}

// remotePart is one shard server behind its replica group. Its corpus
// totals come from the shard.info handshake, and it retries transport
// failures only: the methods are pure reads, so a retry after an
// ambiguous failure is safe, while an application error from the shard
// is deterministic and would answer the same again.
type remotePart struct {
	g    *rpc.Group
	info *InfoResponse
	q    WireNode
}

func (p *remotePart) size() (int, int64) { return p.info.NumDocs, p.info.TotalToks }

func (p *remotePart) stats(ctx context.Context) ([]LeafStats, error) {
	out, err := p.g.Call(ctx, MethodStats, StatsRequest{Query: p.q}, func() any { return &StatsResponse{} })
	if err != nil {
		return nil, err
	}
	return out.(*StatsResponse).Leaves, nil
}

func (p *remotePart) eval(ctx context.Context, spec *evalSpec, st *SearchStats) ([]Result, error) {
	out, err := p.g.Call(ctx, MethodEval, EvalRequest{
		Query:          p.q,
		K:              spec.k,
		Model:          int(spec.model),
		Mu:             spec.params.Mu,
		Lambda:         spec.params.Lambda,
		K1:             spec.params.K1,
		B:              spec.params.B,
		DisablePruning: spec.disablePruning,
		NumDocs:        spec.numDocs,
		TotalToks:      spec.totalToks,
		Overrides:      spec.overrides,
		WantStats:      st != nil,
	}, func() any { return &EvalResponse{} })
	if err != nil {
		return nil, err
	}
	resp := out.(*EvalResponse)
	res := make([]Result, len(resp.Results))
	for i, wr := range resp.Results {
		res[i] = Result{Doc: index.DocID(wr.Doc), Name: wr.Name, Score: wr.Score}
	}
	if st != nil && resp.Stats != nil {
		resp.Stats.addTo(st)
	}
	return res, nil
}

func (p *remotePart) retryable(err error) bool { return rpc.IsTransport(err) }
