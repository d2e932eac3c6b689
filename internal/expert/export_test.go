package expert

// Test-only exports for the external catalog test in reference_test.go,
// which cannot live in this package because internal/eval imports it.
var (
	RefAnalyze   = refAnalyze
	RequireEqual = requireEqual
)
