package sqlval

// RowArena hands out fixed-width row slices carved from large shared
// blocks, so materialising n rows costs O(n/block) allocations instead of
// one per row. The per-row slices are full-capacity sub-slices: appending
// to one reallocates rather than clobbering a neighbour. Rows stay valid
// for as long as the caller keeps them; the arena itself is cheap enough
// to be created per query. An arena whose rows are all dropped can give
// its blocks back (Release), and any arena the released blocks it has not
// carved yet (Spare), for a later arena to carve first (NewRowArenaFrom).
// Not safe for concurrent use.
type RowArena struct {
	width  int
	buf    []Value
	used   int
	block  int       // rows per block; grows geometrically so small results stay small
	blocks [][]Value // every block handed out so far, for Release
	spare  [][]Value // released blocks to carve before allocating
}

// Block sizing: the first block is small (a one-row SELECT should not pay
// for hundreds of rows), then doubles per block up to the cap, where the
// per-row allocation amortisation dominates.
const (
	arenaFirstBlockRows = 16
	arenaBlockRows      = 512
)

// NewRowArena returns an arena producing rows of the given width.
func NewRowArena(width int) *RowArena {
	return &RowArena{width: width, block: arenaFirstBlockRows}
}

// NewRowArenaFrom is NewRowArena over released blocks, which must be
// zeroed and no longer referenced (see Release): it carves them before it
// allocates.
func NewRowArenaFrom(width int, spare [][]Value) *RowArena {
	a := NewRowArena(width)
	a.spare = spare
	return a
}

// Next returns a zeroed row of the arena's width.
func (a *RowArena) Next() []Value {
	if a.width == 0 {
		return nil
	}
	if a.used+a.width > len(a.buf) {
		a.buf = a.newBlock()
		a.used = 0
	}
	r := a.buf[a.used : a.used+a.width : a.used+a.width]
	a.used += a.width
	return r
}

// newBlock returns the next block: a spare that holds a row, or a fresh
// block of the current size.
func (a *RowArena) newBlock() []Value {
	var b []Value
	for len(a.spare) > 0 && b == nil {
		b = a.spare[len(a.spare)-1]
		a.spare = a.spare[:len(a.spare)-1]
		if len(b) < a.width {
			b = nil
		}
	}
	if b == nil {
		b = make([]Value, a.block*a.width)
		if a.block < arenaBlockRows {
			a.block *= 2
		}
	}
	a.blocks = append(a.blocks, b)
	return b
}

// Copy returns an arena-backed copy of row (which must have the arena's
// width).
func (a *RowArena) Copy(row []Value) []Value {
	r := a.Next()
	copy(r, row)
	return r
}

// Release zeroes the arena's blocks and returns them, its unused spares
// included, leaving the arena empty. The caller must hold no row the arena
// handed out: a later arena given the blocks hands the same memory out
// again.
func (a *RowArena) Release() [][]Value {
	for _, b := range a.blocks {
		clear(b)
	}
	out := append(a.spare, a.blocks...)
	*a = RowArena{width: a.width, block: arenaFirstBlockRows}
	return out
}

// Spare detaches and returns the released blocks the arena has not carved
// yet. The rows it handed out stay valid.
func (a *RowArena) Spare() [][]Value {
	s := a.spare
	a.spare = nil
	return s
}
