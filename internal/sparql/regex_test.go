package sparql

import (
	"regexp"
	"testing"
)

// TestRequiredLiteral pins the prefilter each pattern gets: the longest
// case-sensitive literal of the top-level concatenation, a suffix only
// when the end-of-text assertion closes the pattern right after it, and
// none for a case-folded literal or one holding U+FFFD.
func TestRequiredLiteral(t *testing.T) {
	for _, c := range []struct {
		src    string
		lit    string
		suffix bool
	}{
		{`_[0-9]+000$`, "000", true},
		{`_[0-9]+000\z`, "000", true},
		{`abc`, "abc", false},
		{`^abc`, "abc", false},
		{`ab.*cdef`, "cdef", false},
		{`ab.*cd$`, "cd", true},
		{`abc.*d$`, "abc", false},
		{`(?m)x$`, "x", false},
		{`(?i)abc`, "", false},
		{regexSource("abc", "i"), "", false},
		{`a(?i:b)c`, "a", false},
		{`a|b`, "", false},
		{`(abc)`, "", false},
		{`\x{FFFD}`, "", false},
		{`ab\x{FFFD}`, "", false},
		{`a*`, "", false},
	} {
		m, err := compileRegex(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if m.lit != c.lit || m.suffix != c.suffix {
			t.Errorf("%s: prefilter (%q, suffix %v), want (%q, suffix %v)", c.src, m.lit, m.suffix, c.lit, c.suffix)
		}
	}
}

// FuzzRegexPrefilter: for any pattern that compiles and any input bytes,
// invalid UTF-8 included, the prefiltered verdict is the regexp's own.
func FuzzRegexPrefilter(f *testing.F) {
	for _, s := range []struct{ src, in string }{
		{`_[0-9]+000$`, "chain_12000"},
		{`_[0-9]+000$`, "chain_12000\n"},
		{`(?i)abc`, "xABCx"},
		{`(?m)x$`, "x\ny"},
		{`a|b`, "b"},
		{`\x{FFFD}`, "\xff"},
		{`a\x{FFFD}b`, "a\xffb"},
	} {
		f.Add(s.src, []byte(s.in))
	}
	f.Fuzz(func(t *testing.T, src string, in []byte) {
		m, err := compileRegex(src)
		if err != nil {
			return
		}
		if got, want := m.match(string(in)), regexp.MustCompile(src).MatchString(string(in)); got != want {
			t.Fatalf("regex(%q) on %q: prefiltered %v, regexp %v (literal %q, suffix %v)", src, in, got, want, m.lit, m.suffix)
		}
	})
}

// TestDynamicRegexMemoised: an evaluation compiles each dynamic regex()
// source once, a bad one included, whose memoised error keeps dropping
// the solution; the "i" flag makes a source of its own.
func TestDynamicRegexMemoised(t *testing.T) {
	var e exec
	a, err := e.regex(regexSource("merc", ""))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := e.regex(regexSource("merc", "")); b != a {
		t.Error("the same source compiled twice")
	}
	if b, _ := e.regex(regexSource("merc", "i")); b == a || !b.match("Mercury") || a.match("Mercury") {
		t.Error(`the "i" flag did not make a case-insensitive matcher of its own`)
	}
	for range 2 {
		if _, err := e.regex("[bad"); err == nil {
			t.Error("a bad pattern compiled")
		}
	}
	if len(e.regexes) != 3 {
		t.Errorf("%d sources memoised, want 3", len(e.regexes))
	}

	// The flags come from each row: "high" holds an "i", "low" does not.
	r, err := Eval(sampleStore(), `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:dangerLevel ?d . FILTER REGEX(STR(?x), "MERC|GOLD", ?d) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 1 || r.Bindings[0]["x"] != iri("Mercury") {
		t.Errorf("got %v, want Mercury alone", r.Bindings)
	}
}
