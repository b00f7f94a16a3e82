package sqlexec

import "strings"

// like.go — compiled LIKE patterns, the only LIKE matcher production
// runs. A pattern lowers into '%'-separated segments (each a run of
// literal bytes and '_' single-byte wildcards) and matches with the
// classic greedy leftmost algorithm: anchor the first segment, find each
// middle segment left to right, anchor the last segment at the end, in
// time linear in the input per segment. Segments without '_' search with
// strings.Index. A constant pattern lowers once per plan (cLikeConst); a
// pattern computed per row lowers per row (cLikeDyn). Semantics are
// byte-oriented ('_' matches one byte) with no escape character; the LIKE
// tests check the matcher against internal/oracle's dynamic-programming
// matcher.

// likeMatcher is an immutable compiled LIKE pattern.
type likeMatcher struct {
	segs     []likeSeg
	anyRun   bool // pattern contained at least one '%'
	minBytes int  // total bytes the literal segments consume
}

type likeSeg struct {
	text  string // '_' bytes match any single byte
	plain bool   // no '_' in text: plain substring search applies
}

// compileLike lowers a LIKE pattern. It never fails: every pattern is a
// valid LIKE pattern.
func compileLike(pattern string) *likeMatcher {
	m := &likeMatcher{}
	start := 0
	for i := 0; i <= len(pattern); i++ {
		if i == len(pattern) || pattern[i] == '%' {
			seg := pattern[start:i]
			m.segs = append(m.segs, likeSeg{text: seg, plain: !strings.ContainsRune(seg, '_')})
			m.minBytes += len(seg)
			if i < len(pattern) {
				m.anyRun = true
			}
			start = i + 1
		}
	}
	return m
}

// segMatchAt reports whether seg matches s exactly (equal lengths assumed
// by the caller: len(s) == len(seg.text)).
func segMatchAt(s, seg string) bool {
	for i := 0; i < len(seg); i++ {
		if seg[i] != '_' && seg[i] != s[i] {
			return false
		}
	}
	return true
}

// segFind returns the first index ≥ 0 in s where seg matches, or -1.
func (g likeSeg) find(s string) int {
	if g.plain {
		return strings.Index(s, g.text)
	}
	for i := 0; i+len(g.text) <= len(s); i++ {
		if segMatchAt(s[i:i+len(g.text)], g.text) {
			return i
		}
	}
	return -1
}

// match reports whether s matches the compiled pattern.
func (m *likeMatcher) match(s string) bool {
	if !m.anyRun {
		seg := m.segs[0]
		return len(s) == len(seg.text) && segMatchAt(s, seg.text)
	}
	if len(s) < m.minBytes {
		return false
	}
	// Anchored prefix.
	first := m.segs[0]
	if !segMatchAt(s[:len(first.text)], first.text) {
		return false
	}
	pos := len(first.text)
	// Anchored suffix (checked up front so middle greediness cannot eat it).
	last := m.segs[len(m.segs)-1]
	tail := len(s) - len(last.text)
	if tail < pos || !segMatchAt(s[tail:], last.text) {
		return false
	}
	// Greedy leftmost placement of the middle segments within s[pos:tail].
	for _, seg := range m.segs[1 : len(m.segs)-1] {
		if len(seg.text) == 0 {
			continue
		}
		idx := seg.find(s[pos:tail])
		if idx < 0 {
			return false
		}
		pos += idx + len(seg.text)
	}
	return true
}
