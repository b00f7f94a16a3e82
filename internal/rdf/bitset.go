package rdf

import "math/bits"

// A view's membership is a paged bitset over arena ordinals: bit o of page
// o>>pageShift is set when the view holds the triple with ordinal o.
const (
	pageShift = 12 // 4096 ordinals, 512 bytes of words, per page
	pageWords = 1 << pageShift / 64
)

type bitPage struct {
	n int32 // bits set in w
	w [pageWords]uint64
}

// ordSet is a paged bitset of arena ordinals. A page is allocated by its
// first set bit and dropped when its last bit clears, and the page table
// ends at the last allocated page, so a set costs one 8-byte slot per page
// span of the arena up to its highest ordinal plus one page per populated
// span — O(its members) pages, never a dense copy of the arena.
type ordSet struct {
	pages []*bitPage
	n     int // bits set
}

// has reports whether ordinal o is in the set.
func (s *ordSet) has(o uint32) bool {
	i := int(o >> pageShift)
	if i >= len(s.pages) {
		return false
	}
	p := s.pages[i]
	return p != nil && p.w[o>>6%pageWords]&(1<<(o&63)) != 0
}

// add inserts ordinal o, reporting whether it was new.
func (s *ordSet) add(o uint32) bool {
	i := int(o >> pageShift)
	if i >= len(s.pages) {
		s.pages = append(s.pages, make([]*bitPage, i+1-len(s.pages))...)
	}
	p := s.pages[i]
	if p == nil {
		p = new(bitPage)
		s.pages[i] = p
	}
	w, b := &p.w[o>>6%pageWords], uint64(1)<<(o&63)
	if *w&b != 0 {
		return false
	}
	*w |= b
	p.n++
	s.n++
	return true
}

// remove deletes ordinal o, reporting whether it was present. An emptied
// page is freed, and the page table shrinks to its last allocated page.
func (s *ordSet) remove(o uint32) bool {
	i := int(o >> pageShift)
	if i >= len(s.pages) || s.pages[i] == nil {
		return false
	}
	p := s.pages[i]
	w, b := &p.w[o>>6%pageWords], uint64(1)<<(o&63)
	if *w&b == 0 {
		return false
	}
	*w &^= b
	s.n--
	if p.n--; p.n == 0 {
		s.pages[i] = nil
		n := len(s.pages)
		for n > 0 && s.pages[n-1] == nil {
			n--
		}
		s.pages = s.pages[:n]
	}
	return true
}

// each streams the set's ordinals in ascending order; fn returning false
// stops the walk.
func (s *ordSet) each(fn func(o uint32) bool) {
	for i, p := range s.pages {
		if p == nil {
			continue
		}
		base := uint32(i) << pageShift
		for j, w := range p.w {
			for w != 0 {
				if !fn(base + uint32(j*64+bits.TrailingZeros64(w))) {
					return
				}
				w &= w - 1
			}
		}
	}
}
