// Package sim is the deterministic parallel trial engine behind every Monte
// Carlo loop in the repository: the Fig. 6/7 network cells, the Fig. 8
// decoder threshold study, the ablation and resilience sweeps, the
// engine's per-code fan-out, and the benchmarks.
//
// It has one worker pool. Run hands it one trial per work item; RunBatch
// hands it one slab of trials per item, for the packed 64-lane engine. The
// pool alone runs the items, inline at one worker or on goroutines above
// it, keeps the lowest-index first error, honors cancellation, and reports
// progress.
//
// The determinism contract is the whole point of the package: a trial's
// randomness must derive from the root seed and the trial index — never from
// worker identity, scheduling order, or time — so that Run returns
// byte-identical results for every worker count, including 1. Run enforces
// the half it can enforce: results are collected into a slice indexed by
// trial, so the caller's reduction always folds them in trial order no
// matter which worker finished first. The caller keeps the other half by
// deriving each trial's *rng.Source inside the trial function from the
// trial index (rng.Source.SplitN("trial", i) on a root stream).
//
// Workers exist to amortize allocation, not to carry state that matters:
// each goroutine owns a Worker whose scratch arena holds reusable buffers
// (decoder scratch, sampled frames, syndrome slices) so hot loops stop
// allocating per trial. Anything stored in a Worker must be recomputed from
// the trial's inputs before use — it is a cache, never an input.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Worker is the per-goroutine context handed to every trial. It is owned by
// exactly one goroutine for the duration of a Run, so its scratch values
// need no locking.
type Worker struct {
	id      int
	scratch map[string]any
}

// ID reports the worker's index in [0, workers). It identifies the scratch
// arena only; deriving randomness from it breaks the determinism contract.
func (w *Worker) ID() int { return w.id }

// Value returns the worker-local value stored under key, creating it with
// init on first use. Values live for the whole Run and are reused across all
// trials this worker executes.
func (w *Worker) Value(key string, init func() any) any {
	if v, ok := w.scratch[key]; ok {
		return v
	}
	if w.scratch == nil {
		w.scratch = make(map[string]any)
	}
	v := init()
	w.scratch[key] = v
	return v
}

// Scratch returns the worker-local value of type S under key, creating it
// with init on first use. It is the typed convenience wrapper over
// Worker.Value for per-worker arenas (decoder scratch, sample buffers).
func Scratch[S any](w *Worker, key string, init func() S) S {
	return w.Value(key, func() any { return init() }).(S)
}

// Normalize maps a non-positive worker count to runtime.GOMAXPROCS(0), the
// default of every -workers flag.
func Normalize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Progress receives live trial-completion counts from Run. Implementations
// must be safe for concurrent use: the pool's workers all report into the
// same reporter. Progress is observation only — it sees completion counts,
// never results, so it cannot perturb the determinism contract.
type Progress interface {
	TrialDone(n int)
}

type progressKey struct{}

// WithProgress attaches a progress reporter to the context; every Run under
// that context reports trial completions into it. A nil reporter detaches.
func WithProgress(ctx context.Context, p Progress) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, progressKey{}, p)
}

// progressFrom extracts the reporter attached by WithProgress, or nil.
func progressFrom(ctx context.Context) Progress {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(progressKey{}).(Progress)
	return p
}

// Run executes trials 0..n-1 on a pool of workers and returns their results
// in trial order. workers <= 0 selects runtime.GOMAXPROCS(0); the pool never
// exceeds n. The results are identical for every worker count provided the
// trial function honors the package determinism contract.
//
// On failure Run cancels the pool's context, waits for in-flight trials to
// drain, and returns the error of the lowest-indexed failed trial it
// observed (with one worker this is exactly the serial first error). The
// caller's ctx cancels the run the same way, and Run returns its error at
// every worker count, even when the cancellation lands during the last
// trial.
func Run[T any](ctx context.Context, n, workers int, trial func(i int, w *Worker) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sim: negative trial count %d", n)
	}
	results := make([]T, n)
	if err := pool(ctx, n, workers, trials[T]{results, trial}); err != nil {
		return nil, err
	}
	return results, nil
}

// trials is Run's work unit: item i is trial i, stored at results[i].
type trials[T any] struct {
	results []T
	trial   func(i int, w *Worker) (T, error)
}

func (u trials[T]) run(i int, w *Worker) (int, error) {
	v, err := u.trial(i, w)
	if err != nil {
		return 0, err
	}
	u.results[i] = v
	return 1, nil
}

// pool executes items 0..n-1 of u on up to workers goroutines (one worker
// runs them inline, in order). Each item stores its own results; run
// reports how many trials the item completed, which goes to the context's
// progress reporter. The first error by item index wins, and it or the
// caller's cancellation stops the dispatch of further items. u is a type
// parameter, not a closure or an interface value, so handing it to the
// pool allocates nothing.
func pool[U interface {
	run(i int, w *Worker) (int, error)
}](ctx context.Context, n, workers int, u U) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = min(Normalize(workers), n)
	if n == 0 {
		return ctx.Err()
	}
	progress := progressFrom(ctx)

	if workers == 1 {
		w := &Worker{id: 0}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			done, err := u.run(i, w)
			if err != nil {
				return err
			}
			// Report only while the run is still live: an item that
			// completes after the caller's ctx was cancelled has its
			// results discarded on return, so counting it would let
			// progress exceed the kept-trial count.
			if progress != nil && ctx.Err() == nil {
				progress.TrialDone(done)
			}
		}
		// A cancellation during the last item drops the run, as the
		// goroutine loop below does.
		return ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := &Worker{id: id}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				done, err := u.run(i, w)
				if err != nil {
					fail(i, err)
					return
				}
				// A worker that passed the ctx check above can finish its
				// item after a sibling failed and cancelled the pool; its
				// results are discarded on the error return, so suppress
				// the progress report too — otherwise /status trial counts
				// exceed the number of trials whose results are kept.
				if progress != nil && ctx.Err() == nil {
					progress.TrialDone(done)
				}
			}
		}(id)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
