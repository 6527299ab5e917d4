package cluster

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// MaxNodes is the most nodes one gate fronts: a durable delivery's offset
// carries its node's index in the top byte.
const MaxNodes = 256

// nodeShift places a node's index above its own log offsets in the
// DELIVER_AT offsets the gate forwards.
const nodeShift = 56

// ParseNodes parses a comma-separated node address list ("host:port,...").
// Entries are trimmed; empty ones are rejected (a typo'd flag should fail
// loudly, not silently shrink the cluster). Duplicates are collapsed.
func ParseNodes(spec string) ([]string, error) {
	var nodes []string
	for _, part := range strings.Split(spec, ",") {
		nodes = append(nodes, strings.TrimSpace(part))
	}
	return distinct(nodes)
}

// ReadNodesFile reads a hosts file: one node address per line, blank lines
// and '#' comments skipped. This is the static-membership config for
// clusters too large for a flag.
func ReadNodesFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var nodes []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// Allow trailing comments: "10.0.0.1:9310  # filter node A".
		line, _, _ := strings.Cut(sc.Text(), "#")
		if line = strings.TrimSpace(line); line != "" {
			nodes = append(nodes, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: %s lists no nodes", path)
	}
	return distinct(nodes)
}

// distinct drops repeated addresses, keeping the first of each in order. It
// rejects an empty address, an empty list and more than MaxNodes distinct
// addresses.
func distinct(addrs []string) ([]string, error) {
	seen := make(map[string]bool, len(addrs))
	var out []string
	for _, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("cluster: empty node address")
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if len(out) > MaxNodes {
		return nil, fmt.Errorf("cluster: %d nodes, at most %d", len(out), MaxNodes)
	}
	return out, nil
}
