package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestRegistryCollector(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(emit func(string, float64)) {
		emit("pulled_b", 2)
		emit("pulled_a", 1)
	})
	r.RegisterCollector(nil) // must be ignored
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "pulled_a 1\npulled_b 2\n" {
		t.Fatalf("WriteText = %q, want both collected metrics sorted by name", got)
	}
}

// Collectors registered while other goroutines take snapshots: every
// snapshot sees a prefix of the registrations, and the last sees all.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.RegisterCollector(func(emit func(string, float64)) { emit("c", 1) })
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 16*50 {
		t.Fatalf("snapshot has %d metrics, want %d", got, 16*50)
	}
}
