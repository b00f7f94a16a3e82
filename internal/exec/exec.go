// Package exec is the morsel-driven scheduler behind the SPARQL
// executor's intra-query parallelism (the SQL executor runs every plan
// serially). A query's driving input is partitioned into fixed-size
// contiguous morsels in serial enumeration order; a Pool of bounded
// workers claims morsel indexes from an atomic counter, so each worker
// processes a strictly increasing sequence of morsels and every morsel is
// processed by exactly one worker. The executor keeps all mutable
// scratch state per worker and buffers output per morsel, then merges the
// buffers in morsel-index order — which makes the parallel output
// identical to the serial executor's, byte for byte, without any
// cross-worker synchronisation on the hot path. That merge rule lives
// here:
//
//   - a barrier between two stages (run sort → merge) is two consecutive
//     Pool.Run calls, since Run returns only when every claimed morsel has
//     finished; with one worker Run is an inline loop on the calling
//     goroutine;
//   - cancellation is a monotonically decreasing cut index: Cut(m) declares
//     every morsel with index >= m unneeded (ASK answered, error observed),
//     and workers poll Cancelled cheaply to stop claiming or abort
//     in-flight morsels past the cut;
//   - a LIMIT is a Pool target: Done cuts the pool once a completed prefix
//     of morsels has buffered enough rows;
//   - ORDER BY merges sorted runs through MergeSorted — runs sorted
//     concurrently, then a LoserTree k-way merge with ties to the lower run.
package exec

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Workers resolves a Parallelism option value: 0 (the default) means
// GOMAXPROCS, anything else is clamped to at least 1.
func Workers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	if parallelism < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Morsels returns the number of size-row morsels covering n rows (the last
// morsel may be short).
func Morsels(n, size int) int {
	return (n + size - 1) / size
}

// Bounds returns the half-open input-row range [lo, hi) of morsel m when n
// rows are partitioned into size-row morsels.
func Bounds(m, size, n int) (lo, hi int) {
	lo = m * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Pool schedules morsel indexes [0, morsels) over a bounded set of worker
// goroutines. A barrier between two stages is two consecutive Run calls:
// Run returns only once every claimed morsel has finished.
type Pool struct {
	workers int
	morsels int
	next    atomic.Int64
	cut     atomic.Int64 // first morsel index that is no longer needed

	// LIMIT prefix tracking (need >= 0): rows[m] is morsel m's buffered row
	// count, -1 until it completes; frontier is the first incomplete morsel
	// and have the rows buffered below it.
	need     int
	mu       sync.Mutex
	rows     []int
	frontier int
	have     int
}

// NewPool sizes a pool; the worker count is capped at the morsel count.
// need >= 0 is a LIMIT target for Done; need < 0 means no LIMIT.
func NewPool(workers, morsels, need int) *Pool {
	workers = max(1, min(workers, morsels))
	p := &Pool{workers: workers, morsels: morsels, need: need}
	p.cut.Store(int64(morsels))
	if need >= 0 {
		p.rows = make([]int, morsels)
		for m := range p.rows {
			p.rows[m] = -1
		}
	}
	return p
}

// Workers returns the effective worker count.
func (p *Pool) Workers() int { return p.workers }

// Cut declares every morsel with index >= m unneeded. Cuts only move the
// boundary down, so concurrent cuts compose to the smallest.
func (p *Pool) Cut(m int) {
	for {
		cur := p.cut.Load()
		if int64(m) >= cur {
			return
		}
		if p.cut.CompareAndSwap(cur, int64(m)) {
			return
		}
	}
}

// Cancelled reports whether morsel m is past the cut. Workers poll this
// per row (one atomic load) to abort in-flight morsels early.
func (p *Pool) Cancelled(m int) bool { return int64(m) >= p.cut.Load() }

// Done records that morsel m completed with rows buffered output rows. Output
// is merged in morsel order, so once morsels 0..j-1 have all completed and
// together buffered the pool's LIMIT target, morsels j and later are unneeded
// and Done cuts them. Without a target it does nothing. Callers pass a
// target only when buffered rows map 1:1 to merged output — not under
// DISTINCT, sorting or grouping, where the merge collapses or reorders rows.
func (p *Pool) Done(m, rows int) {
	if p.need < 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rows[m] = rows
	for p.frontier < p.morsels && p.rows[p.frontier] >= 0 {
		p.have += p.rows[p.frontier]
		p.frontier++
		if p.have >= p.need {
			p.Cut(p.frontier)
			return
		}
	}
}

// Run calls fn(worker, morsel) for every morsel index below the cut,
// spreading the calls over the pool's workers, and blocks until all
// claimed morsels have finished. Each worker's morsel sequence is strictly
// increasing; every morsel is handed to exactly one worker. With one
// worker the morsels run inline on the calling goroutine, in order, so
// Parallelism 1 spawns nothing.
func (p *Pool) Run(fn func(worker, morsel int)) {
	work := func(w int) {
		for {
			m := int(p.next.Add(1) - 1)
			if m >= p.morsels || p.Cancelled(m) {
				return
			}
			fn(w, m)
		}
	}
	if p.workers == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
}

// MergeSorted sorts each run concurrently on a pool of workers, then
// streams the k-way merge of the sorted runs to yield until the runs are
// exhausted or yield returns false. cmp must be a strict total order up to
// identical items, so an unstable sort cannot reorder anything observable;
// items that compare equal across runs come from the lower run index
// first. Runs are sorted in place.
func MergeSorted[T any](workers int, runs [][]T, cmp func(a, b T) int, yield func(T) bool) {
	NewPool(workers, len(runs), -1).Run(func(_, r int) { slices.SortFunc(runs[r], cmp) })
	lens := make([]int, len(runs))
	for r := range runs {
		lens[r] = len(runs[r])
	}
	lt := NewLoserTree(lens, func(ra, ia, rb, ib int) int { return cmp(runs[ra][ia], runs[rb][ib]) })
	for {
		r, i := lt.Next()
		if r < 0 || !yield(runs[r][i]) {
			return
		}
	}
}

// --- loser-tree k-way merge ---

// LoserTree merges k sorted runs into one globally sorted stream without
// re-sorting: each Next is O(log k) comparisons. Runs are addressed by
// index; items within a run by position. The comparator is three-way
// (negative, zero, positive) over a strict weak ordering of items; when it
// reports a tie, the run with the smaller index wins, so the merge is
// stable across runs.
type LoserTree struct {
	k    int
	node []int32 // node[0] overall winner; node[1..k-1] losers
	pos  []int   // next unconsumed position per run
	lens []int
	cmp  func(runA, idxA, runB, idxB int) int
}

// NewLoserTree builds a merger over runs with the given lengths. Empty runs
// are allowed; an empty lens slice yields an immediately exhausted tree.
func NewLoserTree(lens []int, cmp func(runA, idxA, runB, idxB int) int) *LoserTree {
	t := &LoserTree{k: len(lens), pos: make([]int, len(lens)), lens: lens, cmp: cmp}
	if t.k > 1 {
		t.node = make([]int32, t.k)
		t.node[0] = t.build(1)
	}
	return t
}

// build computes the winner of the subtree rooted at an internal node
// (children 2i and 2i+1, leaves at k..2k-1), storing the loser at the node.
func (t *LoserTree) build(node int) int32 {
	if node >= t.k {
		return int32(node - t.k)
	}
	a := t.build(2 * node)
	b := t.build(2*node + 1)
	if t.beats(a, b) {
		t.node[node] = b
		return a
	}
	t.node[node] = a
	return b
}

// beats reports whether run a's head item comes before run b's head item in
// the merged output. Exhausted runs lose to everything; ties resolve to the
// smaller run index.
func (t *LoserTree) beats(a, b int32) bool {
	if t.pos[a] >= t.lens[a] {
		return false
	}
	if t.pos[b] >= t.lens[b] {
		return true
	}
	if c := t.cmp(int(a), t.pos[a], int(b), t.pos[b]); c != 0 {
		return c < 0
	}
	return a < b
}

// adjust replays run r (whose head just changed) up its leaf-to-root path.
func (t *LoserTree) adjust(r int) {
	winner := int32(r)
	for i := (r + t.k) / 2; i > 0; i /= 2 {
		if t.beats(t.node[i], winner) {
			winner, t.node[i] = t.node[i], winner
		}
	}
	t.node[0] = winner
}

// Next returns the (run, position) of the globally next item and advances
// past it, or (-1, -1) once every run is exhausted.
func (t *LoserTree) Next() (run, idx int) {
	switch t.k {
	case 0:
		return -1, -1
	case 1:
		if t.pos[0] >= t.lens[0] {
			return -1, -1
		}
		t.pos[0]++
		return 0, t.pos[0] - 1
	}
	w := t.node[0]
	if t.pos[w] >= t.lens[w] {
		return -1, -1
	}
	idx = t.pos[w]
	t.pos[w]++
	t.adjust(int(w))
	return int(w), idx
}
