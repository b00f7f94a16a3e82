package main

import "testing"

// The example runs to completion: a log.Fatal in it exits the test binary
// non-zero, which fails the run.
func TestExampleRuns(t *testing.T) { main() }
