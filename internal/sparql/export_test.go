package sparql

import "crosse/internal/rdf"

// export_test.go — what the external sparql_test suites (parity_test.go,
// path_test.go, query_fuzz_test.go) take from inside the package. They
// live outside it because they compare with internal/oracle, which
// imports sparql for the query AST.

// Fixture is the test graph: a view beside a decoy neighbour view.
type Fixture = fixture

// Triples returns what the fixture's view holds, in insertion order.
func (f *fixture) Triples() []rdf.Triple { return f.triples }

// Onto is the sample ontology's namespace.
const Onto = onto

var (
	NewFixture     = newFixture
	SampleStore    = sampleStore
	IRI            = iri
	ForceParallel  = forceParallel
	RenderBindings = renderBindings
	RenderSeq      = renderSeq
	CompileEval    = compileEval
)
