package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// keys lists c's keys as All yields them: most recently used first.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

// checkAgree fails unless the map and the recency list hold the same
// keys, each once, within Cap.
func checkAgree[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	if n := c.order.Len(); n != len(c.byKey) || n > c.Cap {
		t.Fatalf("%d keys mapped, %d listed, cap %d", len(c.byKey), n, c.Cap)
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		if c.byKey[el.Value.(*entry[K, V]).key] != el {
			t.Fatalf("listed key %v maps elsewhere", el.Value.(*entry[K, V]).key)
		}
	}
}

func TestEvictsLeastRecentlyUsedAtCap(t *testing.T) {
	c := Cache[string, int]{Cap: 3}
	for i, k := range []string{"a", "b", "c"} {
		if _, evicted := c.Put(k, i); evicted {
			t.Fatalf("Put(%s) evicted below the cap", k)
		}
	}
	c.Get("a") // b is now the least recently used
	old, evicted := c.Put("d", 3)
	if !evicted || old != 1 {
		t.Fatalf("Put past the cap evicted (%d, %v), want b's value 1", old, evicted)
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b survived eviction")
	}
	if got, want := keys(&c), []string{"d", "a", "c"}; !slices.Equal(got, want) || c.Len() != 3 {
		t.Fatalf("keys %v (len %d), want %v", got, c.Len(), want)
	}
	checkAgree(t, &c)
}

func TestPeekLeavesRecency(t *testing.T) {
	c := Cache[string, int]{Cap: 2}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if _, ok := c.Peek("z"); ok {
		t.Fatal("Peek found a key never put")
	}
	if old, _ := c.Put("c", 3); old != 1 {
		t.Fatalf("evicted %d, want a's 1: Peek must not promote", old)
	}
	checkAgree(t, &c)
}

func TestPutExistingUpdatesAndPromotes(t *testing.T) {
	c := Cache[string, int]{Cap: 2}
	c.Put("a", 1)
	c.Put("b", 2)
	if _, evicted := c.Put("a", 10); evicted || c.Len() != 2 {
		t.Fatalf("re-Put evicted (%v) or grew the cache to %d", evicted, c.Len())
	}
	if v, _ := c.Peek("a"); v != 10 {
		t.Fatalf("a = %d after re-Put, want 10", v)
	}
	if old, _ := c.Put("c", 3); old != 2 {
		t.Fatalf("evicted %d, want b's 2: re-Put must promote", old)
	}
	checkAgree(t, &c)
}

func TestAllYieldsMostRecentFirst(t *testing.T) {
	c := Cache[int, string]{Cap: 8}
	for i := range 5 {
		c.Put(i, fmt.Sprint(i))
	}
	c.Get(2)
	c.Put(0, "zero")
	if got, want := keys(&c), []int{0, 2, 4, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("All yields %v, want %v", got, want)
	}
	n := 0
	for range c.All() {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("All kept yielding after break: %d", n)
	}
}

// TestMatchesReference drives a cache and a slice-backed reference
// through the same seeded Get/Peek/Put mix: every value, every eviction
// and the recency order must agree, with the map and list in step.
func TestMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := Cache[int, int]{Cap: 1 + rng.Intn(6)}
		var ref []int // keys, most recent first
		vals := map[int]int{}
		touch := func(k int) { ref = append([]int{k}, slices.DeleteFunc(ref, func(x int) bool { return x == k })...) }
		for op := 0; op < 500; op++ {
			k := rng.Intn(10)
			_, held := vals[k]
			switch rng.Intn(3) {
			case 0:
				v, ok := c.Get(k)
				if ok != held || v != vals[k] {
					t.Fatalf("seed %d op %d: Get(%d) = %d, %v", seed, op, k, v, ok)
				}
				if held {
					touch(k)
				}
			case 1:
				if v, ok := c.Peek(k); ok != held || v != vals[k] {
					t.Fatalf("seed %d op %d: Peek(%d) = %d, %v", seed, op, k, v, ok)
				}
			default:
				old, evicted := c.Put(k, op)
				vals[k] = op
				touch(k)
				wantEvict := len(ref) > c.Cap
				if evicted != wantEvict {
					t.Fatalf("seed %d op %d: Put(%d) evicted %v, want %v", seed, op, k, evicted, wantEvict)
				}
				if wantEvict {
					gone := ref[len(ref)-1]
					ref = ref[:len(ref)-1]
					if old != vals[gone] {
						t.Fatalf("seed %d op %d: evicted %d, want key %d's %d", seed, op, old, gone, vals[gone])
					}
					delete(vals, gone)
				}
			}
			checkAgree(t, &c)
			if got := keys(&c); !slices.Equal(got, ref) {
				t.Fatalf("seed %d op %d: order %v, want %v", seed, op, got, ref)
			}
		}
	}
}
