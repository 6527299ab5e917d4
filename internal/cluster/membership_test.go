package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/server"
)

func TestParseNodes(t *testing.T) {
	got, err := ParseNodes(" a:1, b:2 ,a:1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("ParseNodes = %v", got)
	}
	for _, bad := range []string{"", " , ", "a:1,,b:2"} {
		if _, err := ParseNodes(bad); err == nil {
			t.Fatalf("ParseNodes(%q) accepted", bad)
		}
	}
}

func TestReadNodesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosts")
	content := "# filter tier\n10.0.0.1:9310\n\n10.0.0.2:9310  # node B\n10.0.0.1:9310\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNodesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "10.0.0.1:9310" || got[1] != "10.0.0.2:9310" {
		t.Fatalf("ReadNodesFile = %v", got)
	}
	empty := filepath.Join(t.TempDir(), "empty")
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if _, err := ReadNodesFile(empty); err == nil {
		t.Fatal("ReadNodesFile accepted a file with no nodes")
	}
}

// addrs returns n distinct node addresses. Nothing dials them: every
// check below fails, or is made, before a gate would.
func addrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 20000+i)
	}
	return out
}

// TestNewRejectsEmptyAddress: an empty address, or no address at all, is a
// configuration error, not a node that is never up.
func TestNewRejectsEmptyAddress(t *testing.T) {
	for _, nodes := range [][]string{nil, {"127.0.0.1:1", ""}} {
		if g, err := New(Config{Nodes: nodes}); err == nil {
			g.Close()
			t.Errorf("New accepted nodes %q", nodes)
		}
	}
}

// TestNewRejectsTooManyNodes: a durable offset has one byte for its node, so
// a gate fronts at most MaxNodes distinct nodes. The limit counts distinct
// addresses, and the flag and hosts-file parsers apply it too.
func TestNewRejectsTooManyNodes(t *testing.T) {
	if g, err := New(Config{Nodes: addrs(MaxNodes + 1)}); err == nil {
		g.Close()
		t.Fatalf("New accepted %d nodes", MaxNodes+1)
	}
	if _, err := ParseNodes(strings.Join(addrs(MaxNodes+1), ",")); err == nil {
		t.Fatalf("ParseNodes accepted %d nodes", MaxNodes+1)
	}
	path := filepath.Join(t.TempDir(), "hosts")
	os.WriteFile(path, []byte(strings.Join(addrs(MaxNodes+1), "\n")), 0o644)
	if _, err := ReadNodesFile(path); err == nil {
		t.Fatalf("ReadNodesFile accepted %d nodes", MaxNodes+1)
	}
	// MaxNodes distinct addresses, each listed twice, is within the limit.
	got, err := distinct(append(addrs(MaxNodes), addrs(MaxNodes)...))
	if err != nil || len(got) != MaxNodes {
		t.Fatalf("distinct of %d nodes listed twice = %d, %v", MaxNodes, len(got), err)
	}
}

// TestNewDeduplicatesNodes: a repeated address is one node, and the node
// indexes (the node byte of durable offsets) follow the sorted addresses,
// whatever order the configuration lists them in.
func TestNewDeduplicatesNodes(t *testing.T) {
	a, b := startNode(t, server.Config{}).Addr(), startNode(t, server.Config{}).Addr()
	g := startGate(t, []string{b, a, b, a}, nil)
	want := []string{a, b}
	slices.Sort(want)
	if !slices.Equal(g.nodes, want) {
		t.Fatalf("nodes = %v, want %v", g.nodes, want)
	}
	for i, np := range g.pubs {
		if np.node != want[i] {
			t.Fatalf("publish plane %d is %s, want %s", i, np.node, want[i])
		}
	}
}
