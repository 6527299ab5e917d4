package sax

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// frameToolchain is the toolchain frameBudget was read with; go.mod names
// it. Another compiler, even a later patch release, may lay frames out
// differently for reasons that have nothing to do with the scanner.
const frameToolchain = "go1.24.0"

// frameBudget pins the stack frames the compiler gives ByteScanner's
// methods, as -gcflags=-S prints them with frameToolchain on amd64. The frames sit on every filtering goroutine's stack: 40 bytes
// more in run and endTag (one more argument on their error calls) cost
// broker-durable 15-20% cpu_us_per_doc (EXPERIMENTS.md "One tokenizer").
// A row that moves is updated in the same change as the code that moves
// it, with broker-durable's cpu_us_per_doc and latency_p50_ms read against
// the parent.
var frameBudget = map[string]string{
	"run":          "args=0x8 locals=0x70",
	"textRun":      "args=0x8 locals=0x78",
	"markup":       "args=0x8 locals=0x48",
	"bang":         "args=0x8 locals=0x50",
	"entity":       "args=0x8 locals=0x50",
	"flushText":    "args=0x8 locals=0x40",
	"startTag":     "args=0x8 locals=0x118",
	"endTag":       "args=0x8 locals=0xc0",
	"closeElement": "args=0x28 locals=0x28",
	"endEvent":     "args=0x28 locals=0x28",
}

// mustInline are the helpers the scanner's loops rely on being inlined.
var mustInline = []string{"hasZero", "hasLess", "skipSpace", "isSpace"}

// TestFrameBudget builds this package with -gcflags='-S -m' and checks
// frameBudget and mustInline.
func TestFrameBudget(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("frameBudget holds amd64 frames")
	}
	if v := runtime.Version(); v != frameToolchain {
		t.Skipf("frameBudget holds %s frames; this is %s", frameToolchain, v)
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(gobin, "build", "-gcflags=-S -m", "-o", os.DevNull, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	text := string(out)
	frame := regexp.MustCompile(`\.\(\*ByteScanner\)\.(\w+) STEXT.* (args=0x[0-9a-f]+ locals=0x[0-9a-f]+)`)
	got := map[string]string{}
	for _, m := range frame.FindAllStringSubmatch(text, -1) {
		got[m[1]] = m[2]
	}
	for name, want := range frameBudget {
		if got[name] != want {
			t.Errorf("(*ByteScanner).%s: %q, want %q", name, got[name], want)
		}
	}
	for _, name := range mustInline {
		if !strings.Contains(text, ": can inline "+name+"\n") {
			t.Errorf("%s is not inlinable", name)
		}
	}
}
