package xpushstream

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModule runs the tests of benchmark/, which is a nested module:
// `go test ./...` at the root never compiles it, so without this an API
// change that breaks the instrument would surface only in the benchmark
// pipeline.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go test in the nested benchmark module")
	}
	cmd := exec.Command("go", "test", "./...")
	cmd.Dir = "benchmark"
	// The module depends only on the checkout around it; never fetch.
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go test ./... in benchmark/: %v\n%s", err, out)
	}
}
