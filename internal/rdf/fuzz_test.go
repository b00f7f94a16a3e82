package rdf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// ntAlphabet is the byte set random N-Triples lines are drawn from.
var ntAlphabet = []byte(`<>"\_:. ^#httpabz019` + "\t")

// TestParseTripleLineNeverPanics feeds the N-Triples parser random input:
// reject or accept, never panic — KB save files may come from other tools.
func TestParseTripleLineNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	alphabet := ntAlphabet
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(80)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		line := string(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", line, r)
				}
			}()
			_, _ = ParseTripleLine(line)
		}()
	}
}

// TestReadNTriplesTruncations truncates a valid document everywhere.
func TestReadNTriplesTruncations(t *testing.T) {
	doc := `<http://a> <http://p> "x\ty" .
_:b <http://q> <http://o> .
<http://c> <http://p> "4.5"^^<http://www.w3.org/2001/XMLSchema#double> .
`
	for i := 0; i <= len(doc); i++ {
		st := NewSharedStore()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", i, r)
				}
			}()
			_, _ = ReadNTriples(strings.NewReader(doc[:i]), st)
		}()
	}
}

// FuzzNTriples checks the codec's round trip: ParseTripleLine either
// rejects a line or returns a triple that WriteNTriples renders as one
// line, which ParseTripleLine and ReadNTriples both read back as the same
// triple.
func FuzzNTriples(f *testing.F) {
	for _, line := range []string{
		`<http://x/a\u003Eb> <http://p> <http://o> .`,
		`<http://smartground.eu/onto#user/eve\u003Ex> <http://p> <http://o> .`,
		`<http://s> <http://p> "v"^^<http://www.w3.org/2001/XMLSchema#string> .`,
		`<http://s> <http://p> "1"^^<http://x/dt\u003E> .`,
		`_:b1 <http://p> "q\"\\\r\n\t\u0000\U0001F600" .`,
		`_:b.1 <http://p> _:c.`,
		`_:b 1 <http://p> <http://o> .`,
		`<http://x/a>b> <http://p> <http://o> .`,
		`<> <> <> .`,
		`_:a:b/c <http://x/a\q\> _:d. .`,
	} {
		f.Add(line)
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 32; i++ {
		buf := make([]byte, rng.Intn(80))
		for j := range buf {
			buf[j] = ntAlphabet[rng.Intn(len(ntAlphabet))]
		}
		f.Add(string(buf))
	}
	f.Fuzz(func(t *testing.T, line string) {
		t3, err := ParseTripleLine(line)
		if err != nil {
			return
		}
		st := NewSharedStore()
		st.AcquireTriple(t3)
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, st); err != nil {
			t.Fatalf("%q parses as %v, which does not write: %v", line, t3, err)
		}
		out := buf.String()
		if strings.IndexByte(out, '\n') != len(out)-1 {
			t.Fatalf("%v writes as %q, not one line", t3, out)
		}
		if back, err := ParseTripleLine(strings.TrimSuffix(out, "\n")); err != nil || back != t3 {
			t.Fatalf("%v writes as %q, which parses as %v, %v", t3, out, back, err)
		}
		read := NewSharedStore()
		if n, err := ReadNTriples(&buf, read); err != nil || n != 1 {
			t.Fatalf("ReadNTriples(%q) = %d, %v", out, n, err)
		}
		if back := MatchSorted(read, Pattern{}); len(back) != 1 || back[0] != t3 {
			t.Fatalf("ReadNTriples(%q) holds %v, want %v", out, back, t3)
		}
	})
}
