package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	sqe "repro"
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/search"
	"repro/internal/wikigen"
)

// request is one distinct benchmark request: the paper's SQE_C over a
// topic's manually selected entities, or the QL_Q baseline over the
// topic's text.
type request struct {
	topic    string
	query    string
	titles   []string
	baseline bool
}

func (q request) search(k int) sqe.SearchRequest {
	if q.baseline {
		return sqe.SearchRequest{Query: q.query, K: k, Baseline: true}
	}
	return sqe.SearchRequest{Query: q.query, EntityTitles: q.titles, K: k}
}

func (q request) kind() string {
	if q.baseline {
		return "QL_Q"
	}
	return "SQE_C"
}

// topicRequests returns an SQE_C and a QL_Q request per topic.
func topicRequests(g *sqe.Graph, queries []dataset.Query) []request {
	var out []request
	for _, q := range queries {
		titles := make([]string, len(q.Entities))
		for i, e := range q.Entities {
			titles[i] = g.Title(e)
		}
		out = append(out,
			request{topic: q.ID, query: q.Text, titles: titles},
			request{topic: q.ID, query: q.Text, baseline: true})
	}
	return out
}

// chicCorpus is the default-scale CHiC collection (shared by the CHiC
// 2012 and 2013 topic sets) with its KB graph, distinct requests and
// judgments. Generation uses the dataset's fixed seeds; the benchmark
// seed never changes the corpus.
type chicCorpus struct {
	graph *sqe.Graph
	index *index.Index
	// texts is the collection as generated, in index order.
	texts     []index.Document
	reqs      []request
	qrels     eval.Qrels
	textBytes int64
}

func loadCHiC() (*chicCorpus, error) {
	start := time.Now()
	world, err := wikigen.Generate(wikigen.DefaultConfig())
	if err != nil {
		return nil, err
	}
	c := &chicCorpus{graph: world.Graph, qrels: eval.Qrels{}}
	ins, err := dataset.BuildWithSink(world, dataset.CHiCProfile(dataset.ScaleDefault),
		func(name, text string) {
			c.texts = append(c.texts, index.Document{Name: name, Text: text})
			c.textBytes += int64(len(text))
		})
	if err != nil {
		return nil, err
	}
	c.index = ins[0].Index
	for _, in := range ins {
		c.reqs = append(c.reqs, topicRequests(world.Graph, in.Queries)...)
		for id, rel := range in.Qrels {
			c.qrels[id] = rel
		}
	}
	header("corpus", fmt.Sprintf("CHiC default scale: %d docs, %d text bytes, %d topics, %d distinct requests",
		c.index.NumDocs(), c.textBytes, len(c.reqs)/2, len(c.reqs)))
	header("corpus_gen_s", fmt.Sprintf("%.3f (not part of setup_s)", time.Since(start).Seconds()))
	return c, nil
}

// ingestReps is how many times ingestRate indexes the collection.
const ingestReps = 3

// ingestRate indexes the collection from its text with the standard
// analyzer and writes the result through write, ingestReps times, and
// returns documents per second of the median repetition. Indexing takes
// over nine tenths of the time, so the fsync at the end of the write,
// whose time varies about twofold on a shared disk, barely moves it.
func (c *chicCorpus) ingestRate(write func(ix *index.Index) error) (float64, error) {
	var secs []float64
	for i := 0; i < ingestReps; i++ {
		start := time.Now()
		if err := write(index.Build(analysis.Standard(), c.texts)); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return float64(len(c.texts)) / median(secs), nil
}

// schedule returns n request indexes into reqs, which holds an SQE_C and
// a QL_Q request per topic at 2t and 2t+1. Requests alternate SQE_C and
// QL_Q; the seed fixes the topic order of each type in every epoch (one
// pass over the topics) and which type leads the epoch.
func schedule(seed int64, distinct, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	topics := distinct / 2
	out := make([]int, 0, n+distinct)
	for len(out) < n {
		sqec, qlq := rng.Perm(topics), rng.Perm(topics)
		lead := rng.Intn(2)
		for i := 0; i < topics; i++ {
			a, b := 2*sqec[i], 2*qlq[i]+1
			if lead == 1 {
				a, b = b, a
			}
			out = append(out, a, b)
		}
	}
	return out[:n]
}

// oracleResults evaluates every distinct request on an in-memory,
// unsharded, exhaustive (WithPruning(false)) engine over the same
// collection: the reference every served result must match bit for bit.
func oracleResults(ctx context.Context, g *sqe.Graph, ix *index.Index, reqs []request, k int) ([][]search.Result, error) {
	oracle := sqe.NewEngine(g, ix, sqe.WithPruning(false))
	out := make([][]search.Result, len(reqs))
	for i, q := range reqs {
		resp, err := oracle.Do(ctx, q.search(k))
		if err != nil {
			return nil, fmt.Errorf("oracle %s %s: %w", q.kind(), q.topic, err)
		}
		out[i] = resp.Results
	}
	return out, nil
}

// quality sets p_at_10 and map from the SQE_C rankings in results
// (indexed like reqs), judged against qrels.
func quality(r *run, reqs []request, results [][]search.Result, qrels eval.Qrels) {
	ranked := eval.Run{}
	for i, q := range reqs {
		if q.baseline {
			continue
		}
		names := make([]string, len(results[i]))
		for j, res := range results[i] {
			names[j] = res.Name
		}
		ranked[q.topic] = names
	}
	r.set("p_at_10", eval.MeanPrecisionAt(qrels, ranked, 10), "ratio")
	r.set("map", eval.MeanAveragePrecision(qrels, ranked), "ratio")
}
