package sqlexec

import (
	"math/rand"
	"testing"
)

// The compiled matcher must agree with the reference likeMatch on every
// string and pattern over {a, b, %, _} up to length 8.
func TestCompiledLikeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func(alphabet string) string {
		b := make([]byte, rng.Intn(9))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		s, p := word("ab%_"), word("ab%_")
		if got, want := compileLike(p).match(s), likeMatch(s, p); got != want {
			t.Fatalf("LIKE %q on %q: compiled %v, reference %v", p, s, got, want)
		}
	}
}
