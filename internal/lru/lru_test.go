package lru

import (
	"sync"
	"testing"
)

func TestEntryBoundEvictsColdest(t *testing.T) {
	c := New[string, int](2, 0, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a", nil); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("c", 3) // a is hottest: b goes
	if _, ok := c.Get("b", nil); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k, nil); !ok {
			t.Errorf("%s should survive", k)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Hits != 3 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction, 3 hits, 1 miss", st)
	}
}

func TestSizeBudget(t *testing.T) {
	c := New[string, int](100, 100, func(v int) int64 { return int64(v) })
	c.Put("a", 60)
	c.Put("b", 60) // 120 > 100: a goes
	if _, ok := c.Get("a", nil); ok {
		t.Error("size budget should have evicted a")
	}
	c.Put("huge", 101) // larger than the whole budget: refused
	if _, ok := c.Get("huge", nil); ok {
		t.Error("oversized entry must not be cached")
	}
	c.Put("b", 30) // replacing recharges the entry's size
	if st := c.Stats(); st.Size != 30 || st.Entries != 1 {
		t.Errorf("stats = %+v, want size 30 in 1 entry", st)
	}
}

func TestValidRejectsStaleEntry(t *testing.T) {
	type plan struct{ epoch int }
	c := New[string, plan](4, 0, nil)
	c.Put("q", plan{epoch: 1})
	at := func(epoch int) func(plan) bool { return func(p plan) bool { return p.epoch == epoch } }
	if _, ok := c.Get("q", at(2)); ok {
		t.Fatal("an entry of another epoch must not answer")
	}
	c.Put("q", plan{epoch: 2}) // the next miss replaces it in place
	if p, ok := c.Get("q", at(2)); !ok || p.epoch != 2 {
		t.Fatalf("Get = %+v, %v", p, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 entry, 1 hit, 1 miss", st)
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New[int, int](16, 64, func(v int) int64 { return int64(v % 8) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*7 + i) % 40
				c.Put(k, i)
				if v, ok := c.Get(k, func(v int) bool { return v >= 0 }); ok && v < 0 {
					t.Errorf("negative value %d", v)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 16 || st.Size > 64 {
		t.Errorf("bounds broken: %+v", st)
	}
	if st.Hits+st.Misses != 8*2000 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*2000)
	}
}
