package core

import (
	"sync"
	"testing"

	"repro/internal/cycles"
)

func TestAsyncVirtine(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	fib := fns["fib"]
	fu := fib.Go(12)
	v, res, err := fu.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v != 144 {
		t.Fatalf("async fib(12) = %d", v)
	}
	if res == nil || res.Cycles == 0 {
		t.Fatal("missing run result")
	}
}

func TestGoAllOrderedResults(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(`
virtine int square(int n) { return n * n; }`)
	if err != nil {
		t.Fatal(err)
	}
	sq := fns["square"]
	got, err := sq.GoAll([]int64{1}, []int64{2}, []int64{3}, []int64{4}, []int64{5})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		n := int64(i + 1)
		if v != n*n {
			t.Fatalf("square(%d) = %d", n, v)
		}
	}
}

func TestConcurrentFuturesAreIsolated(t *testing.T) {
	// Many concurrent invocations mutating the same global must each see
	// their own pristine copy (§5.3 distinct-copy semantics) — the
	// multi-tenant isolation virtines exist for.
	client := NewClient()
	fns, err := client.CompileC(`
int counter = 100;
virtine int bump(int n) {
	counter += n;
	return counter;
}`)
	if err != nil {
		t.Fatal(err)
	}
	bump := fns["bump"]
	const N = 16
	var wg sync.WaitGroup
	results := make([]int64, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = bump.Go(1).Wait()
		}(i)
	}
	wg.Wait()
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != 101 {
			t.Fatalf("virtine %d observed shared state: %d", i, results[i])
		}
	}
}

func TestGoAfterCloseFailsConsistently(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	fib := fns["fib"]
	if _, _, err := fib.Go(10).Wait(); err != nil {
		t.Fatal(err)
	}
	client.Close()
	// Async submission after Close must fail — including on a scheduler
	// lazily created after the Close.
	if _, _, err := fib.Go(10).Wait(); err == nil {
		t.Fatal("Go after Close succeeded")
	}
	client2 := NewClient()
	fns2, err := client2.CompileC(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	client2.Close()
	if _, _, err := fns2["fib"].Go(10).Wait(); err == nil {
		t.Fatal("Go on never-started scheduler after Close succeeded")
	}
	// Synchronous calls keep working on a closed client.
	if v, _, err := fib.CallOn(cycles.NewClock(), 10); err != nil || v != 55 {
		t.Fatalf("CallOn after Close = %d, %v", v, err)
	}
}

func TestGoAllPropagatesError(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(`
virtine int sneaky(int n) { puts("x"); return n; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fns["sneaky"].GoAll([]int64{1}, []int64{2}); err == nil {
		t.Fatal("policy violation not propagated through GoAll")
	}
}
