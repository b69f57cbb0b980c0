package schedule

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		requested, jobs, want int
	}{
		{0, 0, 1},
		{0, 1, 1},
		{8, 4, 4},
		{3, 100, 3},
		{-1, 2, 2}, // negative falls back to GOMAXPROCS, clamped by jobs
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.jobs); c.requested >= 0 && got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.jobs, got, c.want)
		} else if got < 1 {
			t.Errorf("Workers(%d, %d) = %d < 1", c.requested, c.jobs, got)
		}
	}
}

func TestDeviceWorkers(t *testing.T) {
	if dw := DeviceWorkers(1); dw < 1 {
		t.Errorf("DeviceWorkers(1) = %d", dw)
	}
	if dw := DeviceWorkers(1 << 20); dw != 1 {
		t.Errorf("DeviceWorkers(huge pool) = %d, want 1", dw)
	}
}

func TestMapOrderAndDeterminism(t *testing.T) {
	const n = 100
	job := func(i int) (int, error) { return i * i, nil }
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 7, n} {
		got, err := Map(workers, n, job)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results out of index order", workers)
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Several jobs fail; the reported error must be the lowest-index one
	// (what a serial loop would have stopped on), on every pool width.
	job := func(i int) (int, error) {
		if i%3 == 2 { // fails at 2, 5, 8, ...
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(workers, 20, job)
		if err == nil || err.Error() != "job 2 failed" {
			t.Errorf("workers=%d: err = %v, want job 2's error", workers, err)
		}
	}
}

// TestMapCancelSkipsUnstartedJobs: a worker whose job fails starts no
// further job. Each worker's first job waits until every worker is
// inside one, then fails, so every worker records a failure before it
// takes another index and none of the remaining jobs starts, on any
// schedule. (A failure on one worker cannot be asserted to stop its
// siblings: the scheduler may legally run every remaining job on a
// sibling before the failing worker records its error.)
func TestMapCancelSkipsUnstartedJobs(t *testing.T) {
	const workers, n = 4, 1000
	var started sync.WaitGroup
	started.Add(workers)
	var ran int64
	_, err := Map(workers, n, func(i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		if i >= workers {
			return i, nil
		}
		started.Done()
		started.Wait()
		return 0, fmt.Errorf("job %d failed", i)
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("err = %v, want job 0's error", err)
	}
	if r := atomic.LoadInt64(&ran); r != workers {
		t.Errorf("%d of %d jobs started after all %d workers failed, want %d", r, n, workers, workers)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(4, 0) = %v, %v", out, err)
	}
}

func TestStreamIndexOrder(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 3, 8} {
		ch := Stream(workers, n, func(i int) (string, error) {
			if i == 7 {
				return "", fmt.Errorf("frame 7 failed")
			}
			return fmt.Sprintf("frame-%d", i), nil
		}, nil)
		i := 0
		for item := range ch {
			if item.Index != i {
				t.Fatalf("workers=%d: item %d arrived at position %d", workers, item.Index, i)
			}
			if i == 7 {
				if item.Err == nil {
					t.Errorf("workers=%d: frame 7 error lost", workers)
				}
			} else if item.Err != nil || item.Value != fmt.Sprintf("frame-%d", i) {
				t.Errorf("workers=%d: item %d = %q, %v", workers, i, item.Value, item.Err)
			}
			i++
		}
		if i != n {
			t.Fatalf("workers=%d: stream delivered %d of %d items", workers, i, n)
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	ch := Stream(4, 0, func(int) (int, error) { return 0, nil }, nil)
	if _, ok := <-ch; ok {
		t.Fatal("empty stream delivered an item")
	}
}

func TestStreamCancel(t *testing.T) {
	// Cancel after consuming a prefix: the channel must close promptly,
	// every goroutine must exit, and not all jobs may have run.
	var ran int64
	done := make(chan struct{})
	ch := Stream(3, 100, func(i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		return i, nil
	}, done)
	for i := 0; i < 5; i++ {
		if item, ok := <-ch; !ok || item.Index != i {
			t.Fatalf("item %d: ok=%v", i, ok)
		}
	}
	close(done)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				if r := atomic.LoadInt64(&ran); r == 100 {
					t.Error("cancellation did not stop any jobs")
				}
				return
			}
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
}
