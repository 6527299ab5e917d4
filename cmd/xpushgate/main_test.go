package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestBuildConfigNodesFlag(t *testing.T) {
	cfg, opts, err := buildConfig([]string{"-nodes", "a:9310, b:9310", "-request-timeout", "3s"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.version {
		t.Fatal("version flag not set")
	}
	if len(cfg.Nodes) != 2 || cfg.Nodes[0] != "a:9310" || cfg.Nodes[1] != "b:9310" {
		t.Fatalf("Nodes = %v", cfg.Nodes)
	}
	if cfg.Client.Timeout != 3*time.Second {
		t.Fatalf("Client.Timeout = %v", cfg.Client.Timeout)
	}
}

func TestBuildConfigNodesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosts")
	os.WriteFile(path, []byte("# cluster\nn1:9310\nn2:9310\n"), 0o644)
	cfg, _, err := buildConfig([]string{"-nodes-file", path})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Nodes) != 2 {
		t.Fatalf("Nodes = %v", cfg.Nodes)
	}
}

// TestBuildConfigRejectsRemovedFlags: the ring's point count and the
// publish window are constants (cluster.DefaultVirtualNodes,
// server.PublishWindow), not flags.
func TestBuildConfigRejectsRemovedFlags(t *testing.T) {
	for _, args := range [][]string{{"-vnodes", "64"}, {"-publish-window", "64"}} {
		if _, _, err := buildConfig(append([]string{"-nodes", "a:9310"}, args...)); err == nil {
			t.Errorf("removed flag %v accepted", args)
		}
	}
}

func TestBuildConfigRejectsAmbiguousMembership(t *testing.T) {
	if _, _, err := buildConfig(nil); err == nil {
		t.Fatal("accepted no membership source")
	}
	if _, _, err := buildConfig([]string{"-nodes", "a:1", "-nodes-file", "x"}); err == nil {
		t.Fatal("accepted both membership sources")
	}
}

func TestBuildConfigVersion(t *testing.T) {
	_, opts, err := buildConfig([]string{"-version"})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.version {
		t.Fatal("version flag lost")
	}
}
