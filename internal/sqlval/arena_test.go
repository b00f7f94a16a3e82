package sqlval

import "testing"

func TestRowArena(t *testing.T) {
	a := NewRowArena(3)
	r1 := a.Next()
	if len(r1) != 3 || cap(r1) != 3 {
		t.Fatalf("len=%d cap=%d, want 3/3", len(r1), cap(r1))
	}
	r1[0] = NewInt(1)
	r2 := a.Copy([]Value{NewInt(7), NewString("x"), Null})
	// Rows must be zeroed and independent: writing r2 cannot touch r1, and
	// appending to a row reallocates instead of clobbering a neighbour.
	if r1[1] != Null || r1[0] != NewInt(1) {
		t.Fatalf("neighbour row corrupted: %v", r1)
	}
	if r2[0] != NewInt(7) || r2[1] != NewString("x") {
		t.Fatalf("Copy = %v", r2)
	}
	grown := append(r1, NewInt(9))
	r3 := a.Next()
	if r3[0] != Null {
		t.Fatalf("append into arena row leaked into the next row: %v", r3)
	}
	_ = grown

	// Cross block boundaries: rows stay valid and distinct.
	rows := make([][]Value, 0, arenaBlockRows*2)
	for i := 0; i < arenaBlockRows*2; i++ {
		r := a.Next()
		r[0] = NewInt(int64(i))
		rows = append(rows, r)
	}
	for i, r := range rows {
		if r[0] != NewInt(int64(i)) {
			t.Fatalf("row %d = %v", i, r[0])
		}
	}

	// Zero width is a nil row, not a panic.
	if r := NewRowArena(0).Next(); r != nil {
		t.Fatalf("zero-width Next = %v", r)
	}
}

// TestRowArenaRelease: released blocks come back zeroed, are carved again
// by the next arena before it allocates, and a block too narrow for a row
// is skipped; Spare gives back only the blocks an arena never carved.
func TestRowArenaRelease(t *testing.T) {
	a := NewRowArena(2)
	for i := 0; i < 100; i++ {
		a.Copy([]Value{NewString("x"), NewInt(int64(i))})
	}
	blocks := a.Release()
	if len(blocks) == 0 {
		t.Fatal("Release returned no blocks")
	}
	held := map[*Value]bool{}
	for _, b := range blocks {
		for i, v := range b {
			if v != Null {
				t.Fatalf("released block holds %v", v)
			}
			held[&b[i]] = true
		}
	}
	b := NewRowArenaFrom(3, append([][]Value{make([]Value, 2)}, blocks...))
	for i := 0; i < 30; i++ {
		r := b.Next()
		if !held[&r[0]] {
			t.Fatalf("row %d was allocated while released blocks were spare", i)
		}
		if r[0] != Null || r[1] != Null || r[2] != Null {
			t.Fatalf("reused row %d = %v", i, r)
		}
	}
	spare := b.Spare()
	if len(spare) == 0 || len(spare) >= len(blocks)+1 {
		t.Fatalf("Spare returned %d of %d blocks", len(spare), len(blocks)+1)
	}
	given := map[*Value]bool{}
	for _, blk := range spare {
		for i := range blk {
			given[&blk[i]] = true
		}
	}
	for i := 0; i < 200; i++ {
		if r := b.Next(); given[&r[0]] {
			t.Fatal("an arena carved a block it gave back through Spare")
		}
	}
}
