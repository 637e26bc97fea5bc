package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/index"
)

// FuzzParse asserts the query parser never panics and that anything it
// accepts renders to syntax it accepts again (parse∘render fixpoint).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"cable car",
		"#1(cable car)",
		"#weight(2 a 1 #combine(b c))",
		"#uw8(a b c)",
		`"quoted phrase"`,
		"#weight(",
		"a ) b",
		"#frob(x)",
		"###",
		"#weight(1e309 a)",
	} {
		f.Add(seed)
	}
	std := analysis.Standard()
	plain := analysis.Analyzer{}
	f.Fuzz(func(t *testing.T, input string) {
		// Under the full pipeline, anything that parses must render to
		// syntax that re-parses without error. (Render *stability* is
		// not guaranteed here: Porter stemming is not idempotent — e.g.
		// "…ll" can lose one l per round — and a stem can itself be a
		// stopword.)
		if n, err := Parse(std, input); err == nil {
			if _, err := Parse(std, n.String()); err != nil {
				t.Fatalf("rendered query %q does not re-parse: %v", n.String(), err)
			}
		}
		// Under the plain tokenizer (idempotent), parse∘render is a
		// fixpoint.
		n, err := Parse(plain, input)
		if err != nil {
			return
		}
		rendered := n.String()
		n2, err := Parse(plain, rendered)
		if err != nil {
			t.Fatalf("plain rendered query %q does not re-parse: %v", rendered, err)
		}
		if n2.String() != rendered {
			t.Fatalf("plain render not stable: %q vs %q", n2.String(), rendered)
		}
	})
}

// FuzzShardRequest feeds arbitrary request bodies to a shard server's
// stats and eval handlers over a small index (shard 1 of 2, so the
// DocID remap runs too). The contract under hostile input: an error or
// an answer, never a panic. And any query the handlers accept survives
// the wire: EncodeNode, JSON and DecodeNode give back a tree that
// encodes to the same bytes. The seed corpus
// (testdata/fuzz/FuzzShardRequest) holds stats and eval bodies whose
// overrides match the index's leaves under each model, plus hostile
// statistics, widths, weights and depths.
func FuzzShardRequest(f *testing.F) {
	// Enough postings (>= minPruneMass) that MaxScore runs, not only DAAT.
	vocab := []string{"cable", "car", "hill", "the", "tram", "funicular", "railway", "climbs", "and"}
	b := index.NewBuilder(analysis.Analyzer{})
	for i := 0; i < 160; i++ {
		b.Add(fmt.Sprintf("D%d", i), strings.Join([]string{vocab[i%9], vocab[i*7%9], vocab[i/3%9], "cable car"}, " "))
	}
	svc := NewShardService(index.NewSharded(b.Build(), 2).Shard(1), 1, 2)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _ = svc.handleStats(ctx, body)
		_, _ = svc.handleEval(ctx, body)
		var req StatsRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		q, err := DecodeNode(req.Query)
		if err != nil {
			return
		}
		// Compared on the wire: the shard's tree must re-encode to the
		// coordinator's bytes (an empty list and a nil one are the same
		// query, and the same JSON).
		wn, err := EncodeNode(q)
		if err != nil {
			t.Fatalf("decoded query %#v does not encode: %v", q, err)
		}
		sent := mustJSON(t, wn)
		var back WireNode
		if err := json.Unmarshal(sent, &back); err != nil {
			t.Fatalf("encoded query %s does not decode: %v", sent, err)
		}
		q2, err := DecodeNode(back)
		if err != nil {
			t.Fatalf("encoded query %s does not decode: %v", sent, err)
		}
		wn2, err := EncodeNode(q2)
		if err != nil {
			t.Fatalf("round-tripped query %#v does not encode: %v", q2, err)
		}
		if again := mustJSON(t, wn2); !bytes.Equal(sent, again) {
			t.Fatalf("query changed across the wire: %s -> %s", sent, again)
		}
	})
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
