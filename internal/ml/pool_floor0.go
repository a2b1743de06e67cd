//go:build poolfloor0

package ml

// Test-only build (make test-floor0): with a zero floor every Range call
// over more than one item fans out, in every pool including the shared
// one, so the golden suites of other packages — which cannot reach
// newPoolFloor — replay their fingerprints over the parallel path too.
const dispatchFloor = 0
