package search

import (
	"context"
	"fmt"

	"repro/internal/index"
)

// SegmentedSearcher evaluates structured queries against a live
// index.Segmented: per query it pins the current snapshot and runs the
// partitioned core with one partition per live segment. Results and
// scores are bit-identical to evaluating the same query on a monolithic
// index built from the snapshot's surviving documents in ingestion
// order, for every retrieval model. The argument is the sharded one
// (see partitioned.run) plus the tombstone obligations segmentPart
// discharges. Per-segment TermBounds/BlockBounds were computed over the
// full segment — a superset of its live documents — so every pruning
// bound still dominates and MaxScore/Block-Max stay score-safe
// unchanged.
//
// SegmentedSearcher implements Distributed, so an Engine drives it
// exactly like in-process sharding or the RPC coordinator, degradation
// included: a failing segment evaluation retries/drops like a failing
// shard.
type SegmentedSearcher struct {
	partitioned
	live *index.Segmented
}

// NewSegmentedSearcher returns a SegmentedSearcher over live with the
// default μ.
func NewSegmentedSearcher(live *index.Segmented) *SegmentedSearcher {
	gs := &SegmentedSearcher{live: live}
	gs.Mu = DefaultMu
	gs.open = func(q Node) ([]partition, func(), error) {
		sn := live.Acquire()
		if sn == nil {
			return nil, nil, fmt.Errorf("search: segmented index is closed")
		}
		return segmentParts(sn, q), sn.Release, nil
	}
	return gs
}

// Live returns the underlying segmented index.
func (gs *SegmentedSearcher) Live() *index.Segmented { return gs.live }

// NumShards implements Distributed. A segmented index is one logical
// shard — the segment count varies per snapshot and is reported in
// SearchStats.Shards, not here.
func (gs *SegmentedSearcher) NumShards() int { return 1 }

// SearchSnapshot evaluates q against an explicitly pinned snapshot
// instead of the live index's current one — the entry the chaos harness
// uses to prove a pinned view stays bit-identical to its monolithic
// rebuild while mutations and faults race past it. The caller owns sn's
// pin; it is not released here.
func (gs *SegmentedSearcher) SearchSnapshot(ctx context.Context, sn *index.Snapshot, q Node, k int) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	return gs.run(ctx, segmentParts(sn, q), k, nil, nil, nil)
}

func segmentParts(sn *index.Snapshot, q Node) []partition {
	ps := make([]segmentPart, sn.NumSegments())
	parts := make([]partition, len(ps))
	for i := range ps {
		tombs := sn.Tombstones(i)
		// Tombstoned segments materialise every term leaf (no streaming)
		// so the cf/df correction always has a postings row to subtract
		// from — a silent miss there would skew the statistics.
		s := Searcher{ix: sn.Segment(i), DisableStreaming: len(tombs) > 0}
		ps[i] = segmentPart{localPart: localPart{s: s, q: q}, sn: sn, seg: i, tombs: tombs}
		parts[i] = &ps[i]
	}
	return parts
}

// segmentPart is one segment of a pinned snapshot. A segment differs
// from a shard in its tombstones: dead documents still sit in its
// postings, and its evaluator cannot be told about them (bounds and
// scoring stay untouched). So stats subtracts each dead document's term
// frequency from cf and its membership from df; eval asks for the top
// k + |tombstones| — dead documents can displace at most |tombstones|
// live ones — filters the dead out, and remaps survivors to the global
// IDs a monolithic rebuild would assign (segment base + survivor rank),
// which preserves the (score desc, DocID asc) tie-break bit for bit.
type segmentPart struct {
	localPart
	sn    *index.Snapshot
	seg   int
	tombs []index.DocID
}

func (p *segmentPart) size() (int, int64) {
	return p.sn.SegmentLiveDocs(p.seg), p.sn.SegmentLiveTokens(p.seg)
}

func (p *segmentPart) stats(context.Context) ([]LeafStats, error) {
	p.flatten()
	for li := range p.leaves {
		l := &p.leaves[li]
		for _, d := range p.tombs {
			if pos := findDoc(l.postings.Docs, d); pos >= 0 {
				l.cf -= int64(l.postings.Freqs[pos])
				l.df--
			}
		}
	}
	return p.leafStats(), nil
}

func (p *segmentPart) eval(ctx context.Context, spec *evalSpec, st *SearchStats) ([]Result, error) {
	return evalShardGuarded(func() ([]Result, error) {
		res, err := p.score(ctx, spec, spec.k+len(p.tombs), st)
		if err != nil {
			return nil, err
		}
		live := res[:0]
		for _, r := range res {
			if len(p.tombs) > 0 && findDoc(p.tombs, r.Doc) >= 0 {
				continue
			}
			r.Doc = p.sn.GlobalDoc(p.seg, r.Doc)
			live = append(live, r)
		}
		if len(live) > spec.k {
			live = live[:spec.k]
		}
		return live, nil
	})
}
