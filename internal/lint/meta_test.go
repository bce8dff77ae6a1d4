package lint

import "testing"

// TestTreeIsSimlintClean is the repo-wide gate: the full analyzer suite
// over every package of the module must report zero undirectived
// diagnostics. This is the same check CI runs through
// `go vet -vettool=simlint ./...`, kept here so `go test ./...` catches
// violations without the extra build step.
func TestTreeIsSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("go list -export over ./... compiles the module")
	}
	rep, err := Run("../..", All(), "./...")
	if err != nil {
		t.Fatalf("loading module packages (needs the go tool): %v", err)
	}
	for _, d := range rep.Diags {
		t.Errorf("%s", d)
	}
	if len(rep.Diags) > 0 {
		t.Log("fix the violation or add the analyzer's //simlint: directive with a justification")
	}
}
