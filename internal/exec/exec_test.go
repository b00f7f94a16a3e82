package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMorselBounds(t *testing.T) {
	n, size := 2500, 1024
	nm := Morsels(n, size)
	if nm != 3 {
		t.Fatalf("Morsels(%d,%d) = %d, want 3", n, size, nm)
	}
	next := 0
	for m := 0; m < nm; m++ {
		lo, hi := Bounds(m, size, n)
		if lo != next || hi <= lo || hi > n {
			t.Fatalf("morsel %d: bounds [%d,%d) after %d", m, lo, hi, next)
		}
		next = hi
	}
	if next != n {
		t.Fatalf("morsels cover %d of %d rows", next, n)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(4); w != 4 {
		t.Fatalf("Workers(4) = %d", w)
	}
	if w := Workers(0); w < 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(-3); w != 1 {
		t.Fatalf("Workers(-3) = %d", w)
	}
}

// TestPoolCoverage proves every morsel runs exactly once and each worker's
// claimed sequence is strictly increasing.
func TestPoolCoverage(t *testing.T) {
	const morsels = 257
	p := NewPool(8, morsels, -1)
	var mu sync.Mutex
	ran := make([]int, morsels)
	last := map[int]int{}
	p.Run(func(w, m int) {
		mu.Lock()
		ran[m]++
		if prev, ok := last[w]; ok && m <= prev {
			t.Errorf("worker %d claimed morsel %d after %d", w, m, prev)
		}
		last[w] = m
		mu.Unlock()
	})
	for m, c := range ran {
		if c != 1 {
			t.Fatalf("morsel %d ran %d times", m, c)
		}
	}
}

// TestPoolCut proves a cut stops later morsels while everything below the
// cut still runs.
func TestPoolCut(t *testing.T) {
	const morsels = 100
	p := NewPool(4, morsels, -1)
	var ran [morsels]atomic.Bool
	p.Run(func(w, m int) {
		if m == 10 {
			p.Cut(50)
		}
		ran[m].Store(true)
	})
	for m := 0; m < 50; m++ {
		if !ran[m].Load() {
			t.Fatalf("morsel %d below the cut did not run", m)
		}
	}
	if !p.Cancelled(50) || p.Cancelled(49) {
		t.Fatalf("cut boundary wrong")
	}
}

// TestLimiterPrefix proves a LIMIT target is met only by a contiguous
// completed prefix, and that meeting it cuts the pool past that prefix.
func TestLimiterPrefix(t *testing.T) {
	p := NewPool(1, 5, 10)
	// Out-of-order completion: the target is only met once the prefix is
	// contiguous.
	p.Done(2, 100)
	if p.Cancelled(4) {
		t.Fatal("morsel 2 alone cannot satisfy the prefix")
	}
	p.Done(0, 4)
	if p.Cancelled(4) {
		t.Fatal("4 rows < 10")
	}
	p.Done(1, 6)
	if !p.Cancelled(2) || p.Cancelled(1) {
		t.Fatal("Done(1): morsels 0..1 hold 10 rows, want the cut at 2")
	}
}

func TestLimiterNeverMet(t *testing.T) {
	p := NewPool(1, 3, 100)
	for m := 0; m < 3; m++ {
		p.Done(m, 1)
		if p.Cancelled(2) {
			t.Fatalf("target met at morsel %d with 3 total rows", m)
		}
	}
	// Without a target Done never cuts.
	p = NewPool(1, 3, -1)
	p.Done(0, 1000)
	if p.Cancelled(1) {
		t.Fatal("Done cut a pool without a LIMIT target")
	}
}

// TestLimiterCutsRun proves Done stops a running pool once the prefix
// holds the target: every morsel of the prefix runs, the rest are cut, and
// a single inline worker never claims past the prefix at all.
func TestLimiterCutsRun(t *testing.T) {
	for _, workers := range []int{1, 8} {
		p := NewPool(workers, 500, 7)
		var ran [500]atomic.Bool
		var n atomic.Int64
		p.Run(func(_, m int) {
			ran[m].Store(true)
			n.Add(1)
			p.Done(m, 1)
		})
		for m := 0; m < 7; m++ {
			if !ran[m].Load() {
				t.Fatalf("workers=%d: prefix morsel %d did not run", workers, m)
			}
		}
		if !p.Cancelled(7) {
			t.Fatalf("workers=%d: pool not cut after a 7-row prefix", workers)
		}
		if workers == 1 && n.Load() != 7 {
			t.Fatalf("inline worker ran %d morsels, want 7", n.Load())
		}
	}
}

// TestPhasedBarrier proves two consecutive Runs are a barrier: every
// morsel of the first finishes before any morsel of the second starts.
func TestPhasedBarrier(t *testing.T) {
	const morsels = 64
	var first, violations atomic.Int64
	NewPool(8, morsels, -1).Run(func(_, m int) { first.Add(1) })
	NewPool(8, morsels, -1).Run(func(_, m int) {
		if first.Load() != morsels {
			violations.Add(1)
		}
	})
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d second-stage morsels started before the first completed", v)
	}
}

// TestPhasedCoverage proves every morsel of each of two consecutive Runs
// runs exactly once.
func TestPhasedCoverage(t *testing.T) {
	const morsels = 131
	var counts [2][morsels]atomic.Int32
	for st := range counts {
		NewPool(4, morsels, -1).Run(func(_, m int) { counts[st][m].Add(1) })
	}
	for st := range counts {
		for m := range counts[st] {
			if c := counts[st][m].Load(); c != 1 {
				t.Fatalf("stage %d morsel %d ran %d times", st, m, c)
			}
		}
	}
}

// TestRunSerialInline proves one worker degenerates to the serial path:
// every morsel runs on the calling goroutine (zero spawns) in order.
func TestRunSerialInline(t *testing.T) {
	gid := func() string {
		buf := make([]byte, 64)
		buf = buf[:runtime.Stack(buf, false)]
		// "goroutine N [...": take the first two fields.
		if i := bytes.IndexByte(buf, '['); i > 0 {
			return string(buf[:i])
		}
		return string(buf)
	}
	caller := gid()
	for _, p := range []*Pool{NewPool(1, 20, -1), NewPool(8, 1, -1)} {
		var order []int
		p.Run(func(w, m int) {
			if g := gid(); g != caller {
				t.Errorf("morsel %d ran on %q, want calling goroutine %q", m, g, caller)
			}
			if w != 0 {
				t.Errorf("morsel %d ran on worker %d", m, w)
			}
			order = append(order, m)
		})
		for m := range order {
			if order[m] != m {
				t.Fatalf("inline morsel order %v not serial", order)
			}
		}
	}
}

// --- MergeSorted ---

// TestMergeSortedProperty merges random runs (empty runs, a single run,
// dense duplicate keys) at 1..8 workers and checks the output against a
// stable sort of the run-order concatenation, ties broken by (run,
// position). The full comparator encodes that tiebreak itself, keeping it
// a strict total order as MergeSorted requires; the (key, position)
// comparator leaves ties only across runs, which the merge must resolve
// to the lower run.
func TestMergeSortedProperty(t *testing.T) {
	type item struct{ key, run, pos int }
	byKeyPos := func(a, b item) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	}
	full := func(a, b item) int {
		if c := byKeyPos(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.run, b.run)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(7) // 0 runs, a single run, several
		runs := make([][]item, k)
		var want []item
		for r := range runs {
			n := rng.Intn(30)
			if rng.Intn(4) == 0 {
				n = 0 // empty runs
			}
			// Positions repeat every 5 items so that (key, pos) collides
			// across runs; within a run each (key, pos) pair stays unique.
			seen := map[item]bool{}
			for i := 0; i < n; i++ {
				it := item{key: rng.Intn(8), pos: i % 5}
				if !seen[it] {
					seen[it] = true
					it.run = r
					runs[r] = append(runs[r], it)
				}
			}
			want = append(want, runs[r]...)
		}
		sort.SliceStable(want, func(i, j int) bool { return byKeyPos(want[i], want[j]) < 0 })
		for _, c := range []func(a, b item) int{full, byKeyPos} {
			for _, run := range runs {
				rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
			}
			var got []item
			MergeSorted(1+trial%8, runs, c, func(it item) bool {
				got = append(got, it)
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d (%d runs): merged %v, want %v", trial, k, got, want)
			}
		}
		// A yield returning false stops the merge.
		if len(want) > 0 {
			stop := rng.Intn(len(want))
			var n int
			MergeSorted(1+trial%8, runs, full, func(item) bool {
				n++
				return n <= stop
			})
			if n != stop+1 {
				t.Fatalf("trial %d: yield saw %d items after stopping at %d", trial, n, stop+1)
			}
		}
	}
}

// --- LoserTree ---

// TestLoserTreeMerge merges randomly sized sorted runs and checks the
// output is the globally sorted sequence with ties in run-index order.
func TestLoserTreeMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		runs := make([][]int, k)
		type tagged struct{ v, run int }
		var all []tagged
		for r := range runs {
			n := rng.Intn(40)
			runs[r] = make([]int, n)
			for i := range runs[r] {
				runs[r][i] = rng.Intn(25) // dense: many cross-run ties
			}
			sort.Ints(runs[r])
			for _, v := range runs[r] {
				all = append(all, tagged{v, r})
			}
		}
		// The expected order: by value, ties by run index (runs are
		// internally sorted, so within (value, run) order is positional).
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].v != all[j].v {
				return all[i].v < all[j].v
			}
			return all[i].run < all[j].run
		})
		lens := make([]int, k)
		for r := range runs {
			lens[r] = len(runs[r])
		}
		lt := NewLoserTree(lens, func(ra, ia, rb, ib int) int {
			return cmp.Compare(runs[ra][ia], runs[rb][ib])
		})
		for n := 0; ; n++ {
			r, i := lt.Next()
			if r < 0 {
				if n != len(all) {
					t.Fatalf("trial %d: merged %d of %d items", trial, n, len(all))
				}
				break
			}
			if n >= len(all) || runs[r][i] != all[n].v || r != all[n].run {
				t.Fatalf("trial %d item %d: got (run %d, val %d), want (run %d, val %d)",
					trial, n, r, runs[r][i], all[n].run, all[n].v)
			}
		}
		// Exhausted trees stay exhausted.
		if r, i := lt.Next(); r != -1 || i != -1 {
			t.Fatalf("trial %d: Next after exhaustion = (%d,%d)", trial, r, i)
		}
	}
}

// TestLoserTreeEmpty covers zero runs and all-empty runs.
func TestLoserTreeEmpty(t *testing.T) {
	lt := NewLoserTree(nil, func(_, _, _, _ int) int { return 0 })
	if r, _ := lt.Next(); r != -1 {
		t.Fatalf("empty tree yielded run %d", r)
	}
	lt = NewLoserTree([]int{0, 0, 0}, func(_, _, _, _ int) int { return 0 })
	if r, _ := lt.Next(); r != -1 {
		t.Fatalf("all-empty tree yielded run %d", r)
	}
}
