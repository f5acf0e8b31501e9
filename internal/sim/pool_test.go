package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

var errItem = errors.New("item failed")

// poolCase is one fuzzed pool run: n trials in items of size trials (1 for
// Run), on workers goroutines. The item holding trial fail returns an
// error, and the item holding trial cancel cancels the caller's context as
// it starts, then completes. A trial index >= n disables either.
type poolCase struct {
	workers, n, size, fail, cancel int
}

// holds reports whether the item [start, end) holds trial i.
func holds(start, end, i int) bool { return start <= i && i < end }

// item runs the trials [start, end) of one item. completed counts the
// trials of every item that returns results, except the cancelling item's,
// which returns after the cancellation.
func (c poolCase) item(start, end int, cancel context.CancelFunc, completed *atomic.Int64) ([]int, error) {
	if holds(start, end, c.cancel) {
		cancel()
	}
	if holds(start, end, c.fail) {
		return nil, fmt.Errorf("item %d: %w", start/c.size, errItem)
	}
	out := make([]int, end-start)
	for k := range out {
		out[k] = batchTrialValue(start + k)
	}
	if !holds(start, end, c.cancel) {
		completed.Add(int64(len(out)))
	}
	return out, nil
}

// oracle runs the case serially, item by item: the failing item's error
// ends the run, and so does the cancelling item once it has run; both drop
// the results, and only items completed before either are reported.
func (c poolCase) oracle() (results []int, progress int, err error) {
	for start := 0; start < c.n; start += c.size {
		end := min(start+c.size, c.n)
		if holds(start, end, c.fail) {
			return nil, progress, fmt.Errorf("item %d: %w", start/c.size, errItem)
		}
		if holds(start, end, c.cancel) {
			return nil, progress, context.Canceled
		}
		for i := start; i < end; i++ {
			results = append(results, batchTrialValue(i))
		}
		progress += end - start
	}
	return results, progress, nil
}

// check runs the case through run and compares it with the oracle. One
// worker must match the oracle exactly. More workers must return the
// oracle's results and progress when nothing stops the run, the oracle's
// error when one thing does (either stop when the failing and cancelling
// trials sit in different items, since a sibling may start either first),
// and never report the trials of a failed or cancelling item.
func (c poolCase) check(t *testing.T, name string, run func(ctx context.Context, item func(start, end int) ([]int, error)) ([]int, error)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &countingProgress{}
	var completed atomic.Int64
	got, err := run(WithProgress(ctx, p), func(start, end int) ([]int, error) {
		return c.item(start, end, cancel, &completed)
	})
	want, wantProgress, wantErr := c.oracle()

	if err == nil || wantErr == nil {
		if err != wantErr {
			t.Fatalf("%s %+v: err = %v, oracle %v", name, c, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %+v: %d results, oracle %d", name, c, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s %+v: result[%d] = %d, oracle %d", name, c, i, got[i], want[i])
			}
		}
		if p.total.Load() != int64(c.n) || p.calls.Load() != int64((c.n+c.size-1)/c.size) {
			t.Fatalf("%s %+v: progress %d trials in %d calls, want %d in one call per item",
				name, c, p.total.Load(), p.calls.Load(), c.n)
		}
		return
	}
	if got != nil {
		t.Fatalf("%s %+v: %d results returned with error %v", name, c, len(got), err)
	}
	allowed := err.Error() == wantErr.Error()
	stops := c.fail < c.n && c.cancel < c.n && c.fail/c.size != c.cancel/c.size
	if c.workers > 1 && stops {
		allowed = allowed || errors.Is(err, context.Canceled) ||
			err.Error() == fmt.Sprintf("item %d: %v", c.fail/c.size, errItem)
	}
	if !allowed {
		t.Fatalf("%s %+v: err = %v, oracle %v", name, c, err, wantErr)
	}
	if c.workers == 1 && p.total.Load() != int64(wantProgress) {
		t.Fatalf("%s %+v: progress %d, oracle %d", name, c, p.total.Load(), wantProgress)
	}
	if p.total.Load() > completed.Load() {
		t.Fatalf("%s %+v: progress %d exceeds the %d trials completed before the stop",
			name, c, p.total.Load(), completed.Load())
	}
}

// FuzzPool checks Run and RunBatch against a serial oracle — results, the
// returned error and the progress total — on 1–4 workers, up to 299
// trials, a batch size of 1–80, a failing trial and a cancelling trial.
func FuzzPool(f *testing.F) {
	// A fail or cancel index of 2n disables it.
	f.Add(uint8(0), uint16(64), uint8(15), uint16(128), uint16(128))  // clean, one worker
	f.Add(uint8(3), uint16(200), uint8(63), uint16(400), uint16(400)) // clean, short tail batch
	f.Add(uint8(1), uint16(100), uint8(9), uint16(37), uint16(200))   // failure
	f.Add(uint8(2), uint16(100), uint8(9), uint16(200), uint16(12))   // cancellation
	f.Add(uint8(3), uint16(150), uint8(31), uint16(90), uint16(20))   // both, in different items
	f.Add(uint8(1), uint16(150), uint8(31), uint16(40), uint16(41))   // both, in one batch
	f.Add(uint8(0), uint16(0), uint8(0), uint16(0), uint16(0))        // no trials
	f.Fuzz(func(t *testing.T, w uint8, n uint16, size uint8, fail, cancel uint16) {
		c := poolCase{workers: 1 + int(w)%4, n: int(n) % 300, size: 1 + int(size)%80}
		c.fail = int(fail) % (2*c.n + 1)
		c.cancel = int(cancel) % (2*c.n + 1)

		trials := c
		trials.size = 1
		trials.check(t, "Run", func(ctx context.Context, item func(int, int) ([]int, error)) ([]int, error) {
			return Run(ctx, c.n, c.workers, func(i int, _ *Worker) (int, error) {
				out, err := item(i, i+1)
				if err != nil {
					return 0, err
				}
				return out[0], nil
			})
		})
		c.check(t, "RunBatch", func(ctx context.Context, item func(int, int) ([]int, error)) ([]int, error) {
			return RunBatch(ctx, c.n, c.size, c.workers, func(b Batch, _ *Worker) ([]int, error) {
				if b.Start != b.Index*c.size {
					return nil, fmt.Errorf("batch %+v: start, want %d", b, b.Index*c.size)
				}
				return item(b.Start, b.Start+b.Len)
			})
		})
	})
}
