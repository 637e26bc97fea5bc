package search

import (
	"context"
	"sync"
)

// ShardConfig is the retrieval configuration an Engine mirrors onto its
// sharded searcher at construction (the engine owns the knobs; the
// searcher applies them).
type ShardConfig struct {
	// Mu is the Dirichlet smoothing parameter; zero means DefaultMu.
	Mu float64
	// Model selects the retrieval function.
	Model Model
	// Params holds the other models' parameters.
	Params ModelParams
	// DisablePruning turns off MaxScore pruning in every shard.
	DisablePruning bool
	// Sem, when non-nil, bounds extra fan-out goroutines, in process
	// and in the RPC-backed coordinator alike — see ShardedSearcher.Sem.
	Sem chan struct{}
}

// Distributed is the engine-facing contract of partitioned retrieval,
// satisfied by the in-process ShardedSearcher, the live
// SegmentedSearcher and the RPC-backed RemoteSharded coordinator — all
// three through the partitioned core. Sharded and remote return
// bit-identical rankings over the same corpus and shard count — the
// parity tests and `make distributed-smoke` enforce it.
type Distributed interface {
	// NumShards returns the shard count S.
	NumShards() int
	// Configure applies the engine's retrieval configuration. Called
	// once at engine construction, before any searches.
	Configure(cfg ShardConfig)
	// SearchContext returns the global top k (score desc, DocID asc).
	SearchContext(ctx context.Context, q Node, k int) ([]Result, error)
	// SearchWithStatsContext is SearchContext plus instrumentation.
	SearchWithStatsContext(ctx context.Context, q Node, k int) ([]Result, SearchStats, error)
	// SearchDegraded adds graceful degradation (see DegradeOptions).
	SearchDegraded(ctx context.Context, q Node, k int, opts DegradeOptions) ([]Result, PartialInfo, error)
	// SearchDegradedWithStats is SearchDegraded plus instrumentation.
	SearchDegradedWithStats(ctx context.Context, q Node, k int, opts DegradeOptions) ([]Result, SearchStats, PartialInfo, error)
}

// fanOutShards runs f(0..n-1), using extra goroutines where the
// semaphore (if any) has free slots and the caller's goroutine
// otherwise. It never blocks on the semaphore: when the pool is
// saturated the shard runs inline, so a caller that already holds a
// slot can always finish — sharing the semaphore cannot deadlock.
// Shard 0 always runs on the caller's goroutine, after the others have
// been launched.
func fanOutShards(sem chan struct{}, n int, f func(i int)) {
	if n == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		if sem == nil {
			wg.Add(1)
			go func(i int) { defer wg.Done(); f(i) }(i)
			continue
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				f(i)
			}(i)
		default:
			f(i)
		}
	}
	f(0)
	wg.Wait()
}
