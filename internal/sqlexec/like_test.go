package sqlexec

import (
	"math/rand"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// oracleLike asks the oracle whether s LIKE p, through a FROM-less SELECT
// built without the parser, so any s and p can be asked.
func oracleLike(t *testing.T, s, p string) bool {
	t.Helper()
	lit := func(x string) sqlparser.Expr { return &sqlparser.Literal{Val: sqlval.NewString(x)} }
	ans, err := oracle.SQL(nil, &sqlparser.Select{Items: []sqlparser.SelectItem{
		{Expr: &sqlparser.BinExpr{Op: sqlparser.OpLike, L: lit(s), R: lit(p)}},
	}})
	if err != nil {
		t.Fatalf("oracle: %q LIKE %q: %v", s, p, err)
	}
	return ans.Rows[0][0].Bool()
}

// The compiled matcher must agree with the oracle's on every string and
// pattern over {a, b, %, _} up to length 8.
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
		if got, want := compileLike(p).match(s), oracleLike(t, s, p); got != want {
			t.Fatalf("LIKE %q on %q: compiled %v, oracle %v", p, s, got, want)
		}
	}
}
