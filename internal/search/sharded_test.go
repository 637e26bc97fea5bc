package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
)

// shardVocab skews toward a few frequent terms so random corpora get
// multi-document postings, score ties and OOV-adjacent rarities.
var shardVocab = []string{
	"cable", "cable", "cable", "car", "car", "tram", "funicular",
	"railway", "gondola", "lift", "museum", "bridge", "harbour", "bay",
	"line", "crossing", "summit", "station", "pylon", "aerial",
}

func buildShardCorpus(docs, seed int) *index.Index {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := index.NewBuilder(plain)
	for d := 0; d < docs; d++ {
		n := 4 + rng.Intn(24)
		text := ""
		for i := 0; i < n; i++ {
			text += shardVocab[rng.Intn(len(shardVocab))] + " "
		}
		b.Add(fmt.Sprintf("doc%04d", d), text)
	}
	return b.Build()
}

// shardQueries cover the leaf kinds and the weighted-tree normalisation,
// including OOV terms (background mass only) and phrase/window leaves
// that materialise per shard.
func shardQueries() []Node {
	return []Node{
		Term{Text: "cable"},
		Term{Text: "zeppelin"}, // OOV
		Combine(Term{Text: "cable"}, Term{Text: "bay"}),
		Phrase{Terms: []string{"cable", "car"}},
		Unordered{Terms: []string{"tram", "bridge"}, Width: 8},
		Weight(
			[]float64{0.6, 0.25, 0.15},
			[]Node{
				Combine(Term{Text: "cable"}, Term{Text: "car"}),
				Phrase{Terms: []string{"cable", "car"}},
				Combine(Phrase{Terms: []string{"railway", "station"}}, Term{Text: "summit"}),
			},
		),
	}
}

func shardedOver(ix *index.Index, n int, model Model, params ModelParams) (*Searcher, *ShardedSearcher) {
	ref := NewSearcher(ix)
	ref.Model = model
	ref.Params = params
	ss := NewShardedSearcher(index.NewSharded(ix, n))
	ss.Model = model
	ss.Params = params
	return ref, ss
}

// TestShardedBitIdentical is the core differential test: for every
// model, shard count and query, the sharded evaluation must reproduce
// the unsharded ranking with bit-identical scores (==, no tolerance).
func TestShardedBitIdentical(t *testing.T) {
	models := []struct {
		name   string
		model  Model
		params ModelParams
	}{
		{"dirichlet", ModelDirichlet, ModelParams{}},
		{"jelinek-mercer", ModelJelinekMercer, ModelParams{Lambda: 0.4}},
		{"bm25", ModelBM25, ModelParams{K1: 1.2, B: 0.75}},
	}
	for _, corpus := range []struct {
		name string
		ix   *index.Index
	}{
		{"random57", buildShardCorpus(57, 7)},
		{"random200", buildShardCorpus(200, 11)},
		// Crafted: duplicated documents force exact score ties across
		// shard boundaries, exercising the global-DocID tie rule.
		{"crafted-ties", buildIndex(
			"cable car bay", "cable car bay", "cable car bay", "cable car bay",
			"tram bridge", "tram bridge", "cable", "bay bay bay",
		)},
	} {
		for _, m := range models {
			for _, s := range []int{1, 2, 3, 4, 8} {
				for qi, q := range shardQueries() {
					for _, k := range []int{1, 3, 10, 1000} {
						ref, ss := shardedOver(corpus.ix, s, m.model, m.params)
						want := ref.Search(q, k)
						got, _ := ss.SearchContext(context.Background(), q, k)
						if len(got) != len(want) {
							t.Fatalf("%s/%s S=%d q=%d k=%d: %d results, want %d",
								corpus.name, m.name, s, qi, k, len(got), len(want))
						}
						for i := range want {
							if got[i].Doc != want[i].Doc || got[i].Name != want[i].Name || got[i].Score != want[i].Score {
								t.Fatalf("%s/%s S=%d q=%d k=%d rank %d: got (%d,%q,%v) want (%d,%q,%v)",
									corpus.name, m.name, s, qi, k, i,
									got[i].Doc, got[i].Name, got[i].Score,
									want[i].Doc, want[i].Name, want[i].Score)
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedMuOverrideMatches checks the back-compat Mu field is
// resolved identically on both paths.
func TestShardedMuOverrideMatches(t *testing.T) {
	ix := buildShardCorpus(80, 3)
	ref := NewSearcher(ix)
	ref.Mu = 500
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	ss.Mu = 500
	q := Combine(Term{Text: "cable"}, Term{Text: "harbour"})
	want := ref.Search(q, 20)
	got, _ := ss.SearchContext(context.Background(), q, 20)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestShardedEdgeCases(t *testing.T) {
	ix := buildShardCorpus(30, 5)
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	if res, _ := ss.SearchContext(context.Background(), Term{Text: "cable"}, 0); res != nil {
		t.Fatalf("k=0: got %d results", len(res))
	}
	if res, _ := ss.SearchContext(context.Background(), Term{Text: ""}, 10); res != nil {
		t.Fatalf("empty query: got %d results", len(res))
	}
	// OOV-only query still ranks every document (background mass), like
	// the unsharded searcher.
	ref := NewSearcher(ix)
	want := ref.Search(Term{Text: "zeppelin"}, 10)
	got, _ := ss.SearchContext(context.Background(), Term{Text: "zeppelin"}, 10)
	if len(got) != len(want) {
		t.Fatalf("OOV: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OOV rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestShardedCancellation(t *testing.T) {
	ix := buildShardCorpus(64, 9)
	ss := NewShardedSearcher(index.NewSharded(ix, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ss.SearchContext(ctx, Term{Text: "cable"}, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatal("cancelled search returned results")
	}
	// Stats variant surfaces the same error.
	if _, _, err := ss.SearchWithStatsContext(ctx, Term{Text: "cable"}, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("stats path: want context.Canceled, got %v", err)
	}
}

func TestShardedStats(t *testing.T) {
	ix := buildShardCorpus(120, 13)
	const S = 4
	// Exhaustive evaluation on both sides: the exact-partition
	// assertions below do not hold under pruning, where every shard
	// prunes against its own local threshold (see TestShardedPruning
	// for the pruned-mode invariants).
	ref := NewSearcher(ix)
	ref.DisablePruning = true
	ss := NewShardedSearcher(index.NewSharded(ix, S))
	ss.DisablePruning = true
	q := Combine(Term{Text: "cable"}, Term{Text: "bay"})
	_, wantSt := ref.SearchWithStats(q, 10)
	res, st, err := ss.SearchWithStatsContext(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if st.Leaves != wantSt.Leaves {
		t.Fatalf("Leaves=%d want %d", st.Leaves, wantSt.Leaves)
	}
	// The shards partition the candidate set and the postings exactly.
	if st.CandidatesExamined != wantSt.CandidatesExamined {
		t.Fatalf("CandidatesExamined=%d want %d", st.CandidatesExamined, wantSt.CandidatesExamined)
	}
	if st.PostingsAdvanced != wantSt.PostingsAdvanced {
		t.Fatalf("PostingsAdvanced=%d want %d", st.PostingsAdvanced, wantSt.PostingsAdvanced)
	}
	if len(st.Shards) != S {
		t.Fatalf("Shards=%d want %d", len(st.Shards), S)
	}
	var cands, adv int64
	for i, sh := range st.Shards {
		if sh.Elapsed < 0 {
			t.Fatalf("shard %d: negative elapsed", i)
		}
		cands += sh.CandidatesExamined
		adv += sh.PostingsAdvanced
	}
	if cands != st.CandidatesExamined || adv != st.PostingsAdvanced {
		t.Fatalf("per-shard sums (%d,%d) != aggregates (%d,%d)", cands, adv, st.CandidatesExamined, st.PostingsAdvanced)
	}
	// Aggregating two sharded stats adds the per-shard entries
	// element-wise.
	agg := st
	agg.Shards = append([]ShardStats(nil), st.Shards...)
	agg.Add(st)
	for i := range agg.Shards {
		if agg.Shards[i].CandidatesExamined != 2*st.Shards[i].CandidatesExamined {
			t.Fatalf("Add: shard %d not element-wise", i)
		}
	}
}

// TestShardedSaturatedSemaphore drives the fan-out with a semaphore that
// has no free slots: every shard must fall back to inline evaluation on
// the caller's goroutine and still produce the exact ranking. This is
// the no-deadlock property that lets the engine share one pool between
// SQE_C runs and shard fan-out.
func TestShardedSaturatedSemaphore(t *testing.T) {
	ix := buildShardCorpus(90, 17)
	ref := NewSearcher(ix)
	ss := NewShardedSearcher(index.NewSharded(ix, 8))
	sem := make(chan struct{}, 1)
	sem <- struct{}{} // saturate: no shard can take a slot
	ss.Sem = sem
	q := Combine(Term{Text: "cable"}, Term{Text: "tram"})
	want := ref.Search(q, 15)
	got, _ := ss.SearchContext(context.Background(), q, 15)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// With free slots it must also agree (goroutine path).
	<-sem
	got, _ = ss.SearchContext(context.Background(), q, 15)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("free-slot rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}
