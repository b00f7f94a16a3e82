package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// buildArena populates an arena with a mixed-kind corpus and returns the
// triples alongside their keys.
func buildArena(t testing.TB, n int) (*SharedStore, []Triple, []TripleKey) {
	t.Helper()
	s := NewSharedStore()
	rng := rand.New(rand.NewSource(7))
	triples := make([]Triple, 0, n)
	keys := make([]TripleKey, 0, n)
	for i := 0; i < n; i++ {
		var o Term
		switch i % 4 {
		case 0:
			o = NewIRI(fmt.Sprintf("http://x/obj-%d", i))
		case 1:
			o = NewLiteral(fmt.Sprintf("value %d", i))
		case 2:
			o = NewTypedLiteral(fmt.Sprintf("%d", i), XSDInteger)
		default:
			o = NewBlank(fmt.Sprintf("b%d", i))
		}
		tr := Triple{
			S: NewIRI(fmt.Sprintf("http://x/subj-%d", rng.Intn(n/4+1))),
			P: NewIRI(fmt.Sprintf("http://x/pred-%d", rng.Intn(8))),
			O: o,
		}
		k := s.AcquireTriple(tr)
		if rng.Intn(3) == 0 {
			s.AcquireTriple(tr) // some triples asserted more than once
		}
		triples = append(triples, tr)
		keys = append(keys, k)
	}
	return s, triples, keys
}

func TestSharedSnapshotRoundTrip(t *testing.T) {
	s, triples, keys := buildArena(t, 400)

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSharedSnapshot(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadSharedSnapshot: %v", err)
	}

	if got.Len() != s.Len() {
		t.Fatalf("restored %d triples, want %d", got.Len(), s.Len())
	}
	if got.DictLen() != s.DictLen() {
		t.Fatalf("restored dictionary has %d terms, want %d", got.DictLen(), s.DictLen())
	}
	for i, tr := range triples {
		// Same IDs: keys issued by the source resolve against the restore.
		back, ok := got.DecodeTriple(keys[i])
		if !ok || back != tr {
			t.Fatalf("key %v decodes to %v (ok=%v), want %v", keys[i], back, ok, tr)
		}
		if got.RefCount(keys[i]) != s.RefCount(keys[i]) {
			t.Fatalf("refcount mismatch for %v: got %d want %d",
				keys[i], got.RefCount(keys[i]), s.RefCount(keys[i]))
		}
	}
	// Pattern counts agree for every shape on a sample triple.
	probe := triples[13]
	for _, p := range []Pattern{
		{}, {S: probe.S}, {P: probe.P}, {O: probe.O},
		{S: probe.S, P: probe.P}, {P: probe.P, O: probe.O},
		{S: probe.S, O: probe.O}, {S: probe.S, P: probe.P, O: probe.O},
	} {
		if Count(got, p) != Count(s, p) {
			t.Fatalf("Count(%v) = %d, want %d", p, Count(got, p), Count(s, p))
		}
	}
	// Release semantics survive: dropping all references removes the triple.
	k := keys[0]
	for got.RefCount(k) > 0 {
		got.Release(k)
	}
	if countIDs(got, PatternIDs{S: k[0], P: k[1], O: k[2]}) != 0 {
		t.Fatalf("released triple still asserted")
	}
}

func TestViewSnapshotRoundTrip(t *testing.T) {
	s, _, keys := buildArena(t, 300)
	v := s.NewView()
	for i, k := range keys {
		if i%3 != 0 {
			v.Add(k)
		}
	}

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot(arena): %v", err)
	}
	if err := v.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot(view): %v", err)
	}

	r := bufio.NewReader(&buf)
	arena, err := ReadSharedSnapshot(r)
	if err != nil {
		t.Fatalf("ReadSharedSnapshot: %v", err)
	}
	got, err := arena.ReadViewSnapshot(r)
	if err != nil {
		t.Fatalf("ReadViewSnapshot: %v", err)
	}

	if got.Len() != v.Len() {
		t.Fatalf("restored view has %d triples, want %d", got.Len(), v.Len())
	}
	for _, k := range keys {
		if got.Has(k) != v.Has(k) {
			t.Fatalf("membership mismatch for %v", k)
		}
	}
	// Counter parity across all eight shapes for every member key.
	for _, k := range keys {
		for _, p := range []PatternIDs{
			{}, {S: k[0]}, {P: k[1]}, {O: k[2]},
			{S: k[0], P: k[1]}, {P: k[1], O: k[2]},
			{S: k[0], O: k[2]}, {S: k[0], P: k[1], O: k[2]},
		} {
			if countIDs(got, p) != countIDs(v, p) {
				t.Fatalf("CountIDs(%v) = %d, want %d", p, countIDs(got, p), countIDs(v, p))
			}
		}
	}
	// The restored view stays a live overlay: mutations keep counters exact.
	k := keys[3] // i%3==0 → not in the view
	if got.Has(k) {
		t.Fatalf("key %v unexpectedly in view", k)
	}
	if !got.Add(k) || countIDs(got, PatternIDs{S: k[0]}) != countIDs(v, PatternIDs{S: k[0]})+1 {
		t.Fatalf("restored view does not accept mutations")
	}
}

func TestSnapshotCorruption(t *testing.T) {
	s, _, _ := buildArena(t, 50)
	v := s.NewView()

	var arenaBuf, viewBuf bytes.Buffer
	if err := s.WriteSnapshot(&arenaBuf); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteSnapshot(&viewBuf); err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		raw := arenaBuf.Bytes()
		_, err := ReadSharedSnapshot(bytes.NewReader(raw[:len(raw)/2]))
		if err == nil {
			t.Fatalf("truncated snapshot restored without error")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		_, err := ReadSharedSnapshot(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0x01, 0x02}))
		if err == nil {
			t.Fatalf("garbage restored without error")
		}
	})
	t.Run("unassertedViewKey", func(t *testing.T) {
		arena, err := ReadSharedSnapshot(bytes.NewReader(arenaBuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// One member whose IDs are in dictionary range but whose key is not
		// asserted (no corpus triple has S == P == O).
		var bad bytes.Buffer
		enc := SnapshotEncoder{W: bufio.NewWriter(&bad)}
		id := uint64(arena.DictLen())
		for _, v := range []uint64{1, id, id, id} {
			if err := enc.Uvarint(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.W.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := arena.ReadViewSnapshot(bytes.NewReader(bad.Bytes())); err == nil || !IsCorrupt(err) {
			t.Fatalf("foreign view restored: err=%v", err)
		}
	})
}

// TestSnapshotTermCodec round-trips each term kind through the record codec
// the WAL uses. A record holding "v"^^xsd:string, as older writers produced,
// decodes to the plain literal, the same term NewTypedLiteral builds.
func TestSnapshotTermCodec(t *testing.T) {
	cases := []struct{ in, want Term }{
		{NewIRI("http://x/a"), NewIRI("http://x/a")},
		{NewBlank("b1"), NewBlank("b1")},
		{NewLiteral("v"), NewLiteral("v")},
		{NewTypedLiteral("7", XSDInteger), NewTypedLiteral("7", XSDInteger)},
		{Term{Kind: Literal, Value: "v", Datatype: XSDString}, NewLiteral("v")},
	}
	var buf bytes.Buffer
	enc := SnapshotEncoder{W: bufio.NewWriter(&buf)}
	for _, c := range cases {
		if err := enc.Term(c.in); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.W.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := SnapshotDecoder{R: bufio.NewReader(&buf)}
	for _, c := range cases {
		got, err := dec.Term()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("decoded %#v from %#v, want %#v", got, c.in, c.want)
		}
	}
}
