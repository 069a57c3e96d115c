package engine

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
)

// FuzzEvalDifferential checks the block executor against the reference
// evaluator on datalog text over the R/S/T test schema of vexecTestDB and
// one fixed database of at most ten rows per relation: Eval must return
// exactly EvalReference's answers (or fail exactly when it fails), and
// EvalEach must yield exactly Eval's rows. Unparsable input and bodies of
// more than five atoms are skipped, so cross products stay bounded. The
// seed corpus is in testdata/fuzz/FuzzEvalDifferential; run the fuzzer
// with
//
//	go test -run '^$' -fuzz '^FuzzEvalDifferential$' -fuzztime 30s ./internal/engine
func FuzzEvalDifferential(f *testing.F) {
	db := vexecTestDB(f, rand.New(rand.NewSource(1)), 10)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := cq.ParseQuery(src)
		if err != nil || len(q.Body) > 5 {
			t.Skip()
		}
		got, err := db.Eval(q)
		ref, refErr := db.EvalReference(q)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("query %s: Eval error %v, reference error %v", q, err, refErr)
		}
		if err != nil {
			return
		}
		if !EqualResults(got, ref) {
			t.Fatalf("query %s: Eval %v != reference %v", q, got, ref)
		}
		var visited []Tuple
		err = db.EvalEach(q, func(row Tuple) bool {
			visited = append(visited, append(Tuple(nil), row...))
			return true
		})
		if err != nil {
			t.Fatalf("query %s: EvalEach: %v", q, err)
		}
		if !EqualResults(got, visited) {
			t.Fatalf("query %s: EvalEach %v != Eval %v", q, visited, got)
		}
	})
}
