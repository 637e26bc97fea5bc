package search

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/index"
)

var (
	errFlaky = errors.New("flaky") // retryable
	errDead  = errors.New("dead")  // not retryable
)

// fakePart is a scripted partition: each stats/eval call pops the next
// scripted error (nil once the script runs out).
type fakePart struct {
	docs      int
	toks      int64
	leaves    []LeafStats
	statsErrs []error
	evalErrs  []error
	res       []Result
	onEval    func() // runs before eval answers
	spec      *evalSpec
}

func pop(errs *[]error) error {
	if len(*errs) == 0 {
		return nil
	}
	err := (*errs)[0]
	*errs = (*errs)[1:]
	return err
}

func (p *fakePart) size() (int, int64) { return p.docs, p.toks }

func (p *fakePart) stats(context.Context) ([]LeafStats, error) {
	if err := pop(&p.statsErrs); err != nil {
		return nil, err
	}
	return p.leaves, nil
}

func (p *fakePart) eval(ctx context.Context, spec *evalSpec, _ *SearchStats) ([]Result, error) {
	p.spec = spec
	if p.onEval != nil {
		p.onEval()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := pop(&p.evalErrs); err != nil {
		return nil, err
	}
	return p.res, nil
}

func (p *fakePart) retryable(err error) bool { return errors.Is(err, errFlaky) }

// TestPartitionedDegradation drives the four phases over scripted
// partitions: drop tiers, retry accounting, all-fail, cancellation and
// the leaf-count check.
func TestPartitionedDegradation(t *testing.T) {
	leaves := []LeafStats{{CF: 1, DF: 1}, {CF: 2, DF: 1}}
	part := func(doc index.DocID, score float64) *fakePart {
		return &fakePart{docs: 10, toks: 100, leaves: leaves, res: []Result{{Doc: doc, Score: score}}}
	}
	partial := &DegradeOptions{AllowPartial: true, MaxRetries: 2}
	for _, tc := range []struct {
		name        string
		parts       func(cancel context.CancelFunc) []*fakePart
		opts        *DegradeOptions
		wantDocs    []index.DocID
		wantDropped []int
		wantErrs    []string
		wantRetries int
		wantErr     error
	}{{
		name: "stats and eval drops sorted across tiers",
		parts: func(context.CancelFunc) []*fakePart {
			ps := []*fakePart{part(0, 4), part(1, 3), part(2, 2), part(3, 1)}
			ps[0].evalErrs = []error{errDead}
			ps[2].statsErrs = []error{errDead}
			return ps
		},
		opts:        partial,
		wantDocs:    []index.DocID{1, 3},
		wantDropped: []int{0, 2},
		wantErrs:    []string{"dead", "stats phase: dead"},
	}, {
		name: "retries summed over both phases",
		parts: func(context.CancelFunc) []*fakePart {
			ps := []*fakePart{part(0, 1), part(1, 2), part(2, 3)}
			ps[0].statsErrs = []error{errFlaky}
			ps[0].evalErrs = []error{errFlaky, errFlaky}
			ps[1].evalErrs = []error{errFlaky}
			ps[2].evalErrs = []error{errDead} // not retryable: dropped at once
			return ps
		},
		opts:        partial,
		wantDocs:    []index.DocID{1, 0},
		wantDropped: []int{2},
		wantErrs:    []string{"dead"},
		wantRetries: 4,
	}, {
		name: "every partition failing returns the first error",
		parts: func(context.CancelFunc) []*fakePart {
			ps := []*fakePart{part(0, 1), part(1, 2), part(2, 3)}
			ps[0].statsErrs = []error{errors.New("stats 0")}
			ps[1].evalErrs = []error{errors.New("eval 1")}
			ps[2].evalErrs = []error{errors.New("eval 2")}
			return ps
		},
		opts:    partial,
		wantErr: errors.New("eval 1"),
	}, {
		name: "every partition failing stats returns the first error",
		parts: func(context.CancelFunc) []*fakePart {
			ps := []*fakePart{part(0, 1), part(1, 2)}
			ps[0].statsErrs = []error{errors.New("stats 0")}
			ps[1].statsErrs = []error{errors.New("stats 1")}
			return ps
		},
		opts:    partial,
		wantErr: errors.New("stats 0"),
	}, {
		name: "without AllowPartial a failure is fatal",
		parts: func(context.CancelFunc) []*fakePart {
			ps := []*fakePart{part(0, 1), part(1, 2)}
			ps[1].evalErrs = []error{errDead}
			return ps
		},
		wantErr: errDead,
	}, {
		name: "parent cancellation is never degraded",
		parts: func(cancel context.CancelFunc) []*fakePart {
			ps := []*fakePart{part(0, 1), part(1, 2)}
			ps[1].onEval = cancel
			return ps
		},
		opts:    partial,
		wantErr: context.Canceled,
	}, {
		name: "leaf-count mismatch",
		parts: func(context.CancelFunc) []*fakePart {
			ps := []*fakePart{part(0, 1), part(1, 2)}
			ps[1].leaves = append(leaves, LeafStats{CF: 1, DF: 1})
			return ps
		},
		opts:    partial,
		wantErr: errors.New("search: partition 1 flattened 3 leaves, partition 0 flattened 2"),
	}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fakes := tc.parts(cancel)
			parts := make([]partition, len(fakes))
			for i, p := range fakes {
				parts[i] = p
			}
			var pi PartialInfo
			res, err := (&partitioned{}).run(ctx, parts, 10, nil, tc.opts, &pi)
			if tc.wantErr != nil {
				if err == nil || err.Error() != tc.wantErr.Error() {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if res != nil {
					t.Fatalf("failed search returned results %v", res)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var docs []index.DocID
			for _, r := range res {
				docs = append(docs, r.Doc)
			}
			if !reflect.DeepEqual(docs, tc.wantDocs) {
				t.Errorf("docs = %v, want %v", docs, tc.wantDocs)
			}
			if !reflect.DeepEqual(pi.DroppedShards, tc.wantDropped) || !reflect.DeepEqual(pi.ShardErrors, tc.wantErrs) {
				t.Errorf("dropped %v %q, want %v %q", pi.DroppedShards, pi.ShardErrors, tc.wantDropped, tc.wantErrs)
			}
			if pi.Retries != tc.wantRetries {
				t.Errorf("retries = %d, want %d", pi.Retries, tc.wantRetries)
			}
		})
	}
}

// TestPartitionedStatsTierTotals: a partition dropped at the stats
// phase is excluded from the corpus totals and the leaf sums; one
// dropped at eval still counts, because its statistics were settled
// before evaluation started.
func TestPartitionedStatsTierTotals(t *testing.T) {
	mk := func(docs int, toks int64, cf int64) *fakePart {
		return &fakePart{docs: docs, toks: toks, leaves: []LeafStats{{CF: cf, DF: 1}}}
	}
	ps := []*fakePart{mk(1, 10, 1), mk(2, 20, 2), mk(4, 40, 4)}
	ps[0].evalErrs = []error{errDead}
	ps[1].statsErrs = []error{errDead}
	_, err := (&partitioned{}).run(context.Background(), []partition{ps[0], ps[1], ps[2]}, 5, nil, &DegradeOptions{AllowPartial: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := ps[2].spec
	if spec.numDocs != 5 || spec.totalToks != 50 {
		t.Fatalf("corpus totals %d docs / %d toks, want 5 / 50", spec.numDocs, spec.totalToks)
	}
	want := LeafOverride{CF: 5, DF: 2, CollProb: index.FloorProb(5, 50)}
	if !reflect.DeepEqual(spec.overrides, []LeafOverride{want}) {
		t.Fatalf("overrides %+v, want %+v", spec.overrides, want)
	}
	if ps[1].spec != nil {
		t.Fatal("a partition dropped at the stats phase was evaluated")
	}
}
