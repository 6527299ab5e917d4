package xpushstream

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModule checks benchmark/, which is a nested module: `go test
// ./...` at the root never compiles it, so without this an API change that
// breaks the instrument would surface only in the benchmark pipeline. The
// long run runs the module's tests; -short only vets it, which compiles
// every package against the checkout in seconds.
func TestBenchmarkModule(t *testing.T) {
	args := []string{"test", "./..."}
	if testing.Short() {
		args = []string{"vet", "./..."}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = "benchmark"
	// The module depends only on the checkout around it; never fetch.
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s ./... in benchmark/: %v\n%s", args[0], err, out)
	}
}
