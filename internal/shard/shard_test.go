package shard

import (
	"fmt"
	"sync"
	"testing"
)

type counter struct {
	key string
	n   int
}

func newCounterMap() *Map[*counter] {
	return NewMap(0, func(key string) *counter { return &counter{key: key} })
}

// keys lists the instantiated keys through Range.
func keys(m *Map[*counter]) []string {
	var out []string
	m.Range(func(k string, _ *counter) { out = append(out, k) })
	return out
}

func TestLazyInstantiation(t *testing.T) {
	m := newCounterMap()
	if n := len(keys(m)); n != 0 {
		t.Fatalf("fresh map has %d keys", n)
	}
	if m.Peek("a", func(*counter) { t.Error("Peek instantiated state") }) {
		t.Error("Peek reported an untouched key as present")
	}
	m.Do("a", func(c *counter) {
		if c.key != "a" {
			t.Errorf("state created with key %q", c.key)
		}
		c.n++
	})
	if n := len(keys(m)); n != 1 {
		t.Fatalf("after one Do, Len = %d", n)
	}
	found := m.Peek("a", func(c *counter) {
		if c.n != 1 {
			t.Errorf("state not shared between Do and Peek: n=%d", c.n)
		}
	})
	if !found {
		t.Error("Peek missed a touched key")
	}
}

func TestKeysAndRange(t *testing.T) {
	m := newCounterMap()
	want := map[string]bool{"": true, "alpha": true, "beta": true}
	for k := range want {
		m.Do(k, func(c *counter) { c.n = len(k) })
	}
	got := keys(m)
	if len(got) != len(want) {
		t.Fatalf("Keys returned %d keys, want %d", len(got), len(want))
	}
	for _, k := range got {
		if !want[k] {
			t.Errorf("unexpected key %q", k)
		}
	}
	visited := 0
	m.Range(func(k string, c *counter) {
		visited++
		if c.n != len(k) {
			t.Errorf("key %q carries n=%d, want %d", k, c.n, len(k))
		}
	})
	if visited != len(want) {
		t.Errorf("Range visited %d keys, want %d", visited, len(want))
	}
}

// TestConcurrentDoSerialisesPerKey hammers a small keyspace from many
// goroutines; per-key mutual exclusion means every increment must survive.
func TestConcurrentDoSerialisesPerKey(t *testing.T) {
	m := newCounterMap()
	const (
		workers = 16
		nkeys   = 37
		incs    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				key := fmt.Sprintf("k%d", i%nkeys)
				m.Do(key, func(c *counter) { c.n++ })
			}
		}()
	}
	wg.Wait()
	if n := len(keys(m)); n != nkeys {
		t.Fatalf("Len = %d, want %d", n, nkeys)
	}
	total := 0
	m.Range(func(_ string, c *counter) { total += c.n })
	if total != workers*incs {
		t.Errorf("lost updates: total = %d, want %d", total, workers*incs)
	}
}

func TestEmptyKeyIsOrdinary(t *testing.T) {
	m := newCounterMap()
	m.Do("", func(c *counter) { c.n = 7 })
	if !m.Peek("", func(c *counter) {
		if c.n != 7 {
			t.Errorf("empty-key state n=%d", c.n)
		}
	}) {
		t.Error("empty key not found after Do")
	}
}
