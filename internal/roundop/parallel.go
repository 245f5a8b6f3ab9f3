package roundop

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// parallelThreshold is the smallest total one-round facet count worth
// sharding; below it goroutine startup and shard merging outweigh the work.
const parallelThreshold = 256

// Shard chunk sizes. One-round products are split into runs of
// oneRoundChunk consecutive indices; with r > 1 each first-round facet
// expands into a whole (r-1)-round subtree, so deepChunk dispatches them
// one at a time to keep the workers balanced.
const (
	oneRoundChunk = 128
	deepChunk     = 1
)

// shardJob is one slice of one branch: the branch's option table, the
// operator its continuation rounds use, and a linear index range into the
// option product.
type shardJob struct {
	opts   [][]pc.Option
	next   Operator
	lo, hi int64
}

// OneRoundParallel is OneRound with facet generation sharded over workers.
func OneRoundParallel(op Operator, input topology.Simplex, workers int) (*pc.Result, error) {
	return RoundsParallel(op, input, 1, workers)
}

// OneRoundParallelCtx is OneRoundParallel with cooperative cancellation:
// see RoundsParallelCtx.
func OneRoundParallelCtx(ctx context.Context, op Operator, input topology.Simplex, workers int) (*pc.Result, error) {
	return RoundsParallelCtx(ctx, op, input, 1, workers)
}

// RoundsParallel is Rounds with the first round's work split across a
// worker pool. The dispatcher asks the operator for its branches and
// shards every branch's facet product into index-range jobs (the option
// tables are built serially — that cost is per option, not per facet).
// Workers close faces into private complexes merged at the end, so the
// resulting complex and view map are independent of worker count and
// scheduling — the complex is a set and every accessor sorts — and
// CanonicalHash agrees bit for bit with the serial construction.
func RoundsParallel(op Operator, input topology.Simplex, r int, workers int) (*pc.Result, error) {
	return RoundsParallelCtx(context.Background(), op, input, r, workers)
}

// RoundsParallelCtx is RoundsParallel threaded with a context: workers
// observe cancellation at the next job boundary (at most one shard of work
// after ctx fires), the call returns ctx.Err(), and an obs.Tracker carried
// by the context (obs.FromContext) has its "facets" counter bumped shard
// by shard. With an uncancellable context and workers <= 1 the call is
// exactly the serial Rounds.
func RoundsParallelCtx(ctx context.Context, op Operator, input topology.Simplex, r int, workers int) (*pc.Result, error) {
	if r < 0 {
		return nil, fmt.Errorf("roundop: negative round count %d", r)
	}
	cancellable := ctx.Done() != nil
	if (workers <= 1 && !cancellable) || r == 0 {
		return Rounds(op, input, r)
	}
	if workers < 1 {
		workers = 1
	}
	cur := pc.InputViews(input)
	branches, err := op.Branches(cur)
	if err != nil {
		return nil, err
	}
	jobs, grand := buildShardJobs(branches, r)
	if r == 1 && grand < parallelThreshold && !cancellable {
		return Rounds(op, input, r)
	}
	return runJobs(ctx, jobs, r, workers)
}

// buildShardJobs shards every branch's facet product into index-range
// jobs. Branches arrive in the operator's deterministic order and shards
// are cut at fixed strides, so the job list — and therefore any shard
// index — is stable across runs of the same (operator, input, rounds)
// triple. The checkpoint layer depends on that stability: a resumed run
// rebuilds this list and trusts recorded shard indices to mean the same
// facet ranges.
func buildShardJobs(branches []Branch, r int) (jobs []shardJob, grand int64) {
	chunk := int64(oneRoundChunk)
	if r > 1 {
		chunk = deepChunk
	}
	for _, b := range branches {
		if len(b.Opts) == 0 {
			continue
		}
		total := pc.ProductSize(b.Opts)
		grand += total
		for lo := int64(0); lo < total; lo += chunk {
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			jobs = append(jobs, shardJob{opts: b.Opts, next: b.Next, lo: lo, hi: hi})
		}
	}
	return jobs, grand
}

// runShard enumerates one shard's facet range into local.
func runShard(local *pc.Result, job shardJob, r int) error {
	n := len(job.opts)
	idx := make([]int, n)
	verts := make([]topology.Vertex, n)
	facet := make([]*views.View, n)
	pc.DecodeIndex(idx, job.opts, job.lo)
	for li := job.lo; li < job.hi; li++ {
		pc.FillFacet(facet, verts, job.opts, idx)
		if r == 1 {
			local.AddFacetVertices(verts, facet)
		} else if err := appendRounds(local, job.next, facet, r-1); err != nil {
			return err
		}
		pc.Advance(idx, job.opts)
	}
	return nil
}

// runJobs drains jobs with a pool of workers, each accumulating into a
// private result, and returns the first worker's result with the others
// merged into it. Adopting that result keeps the entry and vertex-id
// order a merge into an empty result would give, without re-inserting
// it. Workers re-check the context at every job claim; on cancellation
// the merge is skipped and ctx.Err() is returned. The first enumeration
// error (none are expected from the in-tree operators) aborts the drain
// the same way.
func runJobs(ctx context.Context, jobs []shardJob, r int, workers int) (*pc.Result, error) {
	if len(jobs) == 0 {
		return pc.NewResult(), nil
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	facetCtr := obs.FromContext(ctx).Counter("facets")
	locals := make([]*pc.Result, workers)
	var cursor int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := range locals {
		local := pc.NewResult()
		locals[w] = local
		wg.Add(1)
		go func(local *pc.Result) {
			defer wg.Done()
			for {
				// ctx.Err() directly, so cancellation is observed
				// synchronously: once cancel() returns, no worker claims
				// another shard (the checkpoint tests rely on this bound).
				if ctx.Err() != nil || firstErr.Load() != nil {
					return
				}
				j := atomic.AddInt64(&cursor, 1) - 1
				if j >= int64(len(jobs)) {
					return
				}
				job := jobs[j]
				if err := runShard(local, job, r); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				facetCtr.Add(uint64(job.hi - job.lo))
			}
		}(local)
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return nil, *errp
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := locals[0]
	for _, l := range locals[1:] {
		res.Merge(l)
	}
	return res, nil
}
