// Package oracle holds the reference evaluators the executors' parity
// suites compare against: a materialising SQL interpreter (SQL) and a
// term-level SPARQL evaluator (SPARQL). Only _test.go files import it;
// TestOnlyTestsImportOracle enforces that, and that the package reaches
// below the parsers only into sqlval, sqldb and rdf.
//
// Each evaluator is written to be slow and obvious rather than fast: SQL
// resolves column references by name per row, materialises a full rowset
// at every stage and nested-loops every join; SPARQL threads string-keyed
// bindings through full intermediate materialisation and reads a plain
// triple slice. Neither calls into internal/sqlexec or internal/sparql's
// evaluation code, so a rule the executors get wrong is not also wrong
// here. Arithmetic, scalar functions, aggregates, LIKE and the SPARQL term
// order are this package's own: INTEGER arithmetic and SUM go through
// math/big, and a DOUBLE SUM or AVG is the exact sum rounded once.
//
// Semantics follow PostgreSQL's documentation, except where the engine's
// dialect deliberately differs; each such rule is written as the dialect
// has it and names the deviation in a comment.
package oracle
