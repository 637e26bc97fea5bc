package search

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/fault"
)

// DegradeOptions configures graceful degradation for partitioned
// retrieval (shards, segments or shard servers). The zero value
// disables every mechanism, reproducing the strict all-or-nothing
// behaviour of SearchContext.
type DegradeOptions struct {
	// AllowPartial merges the surviving shards' results when some shards
	// fail (error, panic, or per-shard deadline), instead of failing the
	// whole query. Parent-context cancellation is never degraded away:
	// if the caller's ctx is done, the search fails with ctx.Err()
	// regardless of this setting.
	AllowPartial bool
	// ShardDeadline bounds each shard's evaluation (0 = no per-shard
	// deadline). A shard that exceeds it is treated like a failed shard:
	// dropped under AllowPartial, fatal otherwise.
	ShardDeadline time.Duration
	// MaxRetries re-runs a shard call that failed retryably — a
	// transient fault (fault.IsTransient) in process, a transport error
	// (rpc.IsTransport) over RPC — up to this many extra times before
	// declaring the shard failed.
	MaxRetries int
	// RetryBackoff is the base delay between retry attempts; attempt i
	// waits i×RetryBackoff (linear backoff, bounded by MaxRetries).
	RetryBackoff time.Duration
}

// PartialInfo reports what degradation did to one search.
type PartialInfo struct {
	// DroppedShards lists the shards whose results are missing from the
	// merge, ascending.
	DroppedShards []int
	// ShardErrors[i] is the failure that dropped DroppedShards[i].
	ShardErrors []string
	// Retries counts shard evaluation re-runs after transient faults
	// (successful or not).
	Retries int
}

// Degraded reports whether any shard was dropped.
func (p *PartialInfo) Degraded() bool { return p != nil && len(p.DroppedShards) > 0 }

// evalShardGuarded runs one in-process partition evaluation attempt
// with the fault hook and panic containment. Partition evaluations run
// on worker goroutines, where an uncaught panic — injected or genuine —
// would kill the process before any engine-level recovery could run,
// so the recover here is unconditional, not gated on degradation being
// enabled.
func evalShardGuarded(eval func() ([]Result, error)) (res []Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fault.AsPanicError(v, debug.Stack())
		}
	}()
	if err := fault.Check(fault.ShardEval); err != nil {
		return nil, err
	}
	return eval()
}

// withRetries drives one partition call under the degradation policy:
// a per-attempt deadline (opts.ShardDeadline) and up to opts.MaxRetries
// re-runs with linear backoff while retryable(err) holds. With nil opts
// it is a single attempt under the caller's context. It returns how
// many re-runs happened; partitions run concurrently, so the caller
// sums the per-partition counts after the fan-out instead of sharing a
// counter.
func withRetries(ctx context.Context, opts *DegradeOptions, retryable func(error) bool, call func(ctx context.Context) error) (retries int, err error) {
	attempts := 1
	var backoff time.Duration
	if opts != nil {
		attempts += opts.MaxRetries
		backoff = opts.RetryBackoff
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			retries++
			if backoff > 0 {
				t := time.NewTimer(time.Duration(attempt) * backoff)
				select {
				case <-ctx.Done():
					t.Stop()
					return retries, ctx.Err()
				case <-t.C:
				}
			}
		}
		attemptCtx := ctx
		var cancel context.CancelFunc
		if opts != nil && opts.ShardDeadline > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, opts.ShardDeadline)
		}
		err = call(attemptCtx)
		if cancel != nil {
			cancel()
		}
		if err == nil || !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	return retries, err
}

// settle applies the degradation policy to one phase's failures
// (errs[i] non-nil). Without opts.AllowPartial, or once the caller's
// own context is done — cancellation is the caller's signal, never
// degraded away — the first failure fails the search. Otherwise each
// failed partition is dropped with its error, prefixed by the phase.
// A phase that leaves no partition standing returns its first error: a
// fully empty "partial" result would be indistinguishable from a query
// matching nothing.
func settle(ctx context.Context, opts *DegradeOptions, errs, dropped []error, prefix string) error {
	var first error
	alive := 0
	for i, err := range errs {
		if err == nil {
			if dropped[i] == nil {
				alive++
			}
			continue
		}
		if opts == nil || !opts.AllowPartial || ctx.Err() != nil {
			return err
		}
		if first == nil {
			first = err
		}
		dropped[i] = err
		if prefix != "" {
			dropped[i] = fmt.Errorf("%s%w", prefix, err)
		}
	}
	if alive == 0 {
		return first
	}
	return nil
}
