package pg

import (
	"sync"
	"testing"
)

// TestRunRaisesHelperPanic makes both calls of a two-call batch panic
// while both are running, so one of the panics is a helper's. It must not
// crash the process, and Run must raise a panic on the caller once the
// batch is done.
func TestRunRaisesHelperPanic(t *testing.T) {
	pool := NewWorkerPool(2)
	defer pool.Close()

	var arrived sync.WaitGroup
	arrived.Add(2)
	raised := func() (r any) {
		defer func() { r = recover() }()
		pool.Run(2, func(i int) {
			arrived.Done()
			arrived.Wait() // each call is on its own goroutine
			panic(i)
		})
		return nil
	}()
	if raised != 0 && raised != 1 {
		t.Fatalf("Run raised %v, want one of the calls' panics (0 or 1)", raised)
	}
}
