package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
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

// TestBuildConfigRejectsRemovedFlags: the gate has no ring to size, and
// the publish window is a constant (server.PublishWindow), not a flag.
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

// TestMainExitsTwoOnBadMembership: an empty node address, or more than
// cluster.MaxNodes distinct nodes (a durable offset has one byte for its
// node), is a usage error, and xpushgate exits 2 before it serves.
func TestMainExitsTwoOnBadMembership(t *testing.T) {
	if args := os.Getenv("XPUSHGATE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"xpushgate"}, strings.Split(args, "\n")...)
		main()
		return
	}
	many := make([]string, cluster.MaxNodes+1)
	for i := range many {
		many[i] = fmt.Sprintf("127.0.0.1:%d", 20000+i)
	}
	hosts := filepath.Join(t.TempDir(), "hosts")
	if err := os.WriteFile(hosts, []byte(strings.Join(many, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-nodes", "127.0.0.1:1,,127.0.0.1:2"},
		{"-nodes", strings.Join(many, ",")},
		{"-nodes-file", hosts},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestMainExitsTwoOnBadMembership$")
		args = append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", ""}, args...)
		cmd.Env = append(os.Environ(), "XPUSHGATE_TEST_ARGS="+strings.Join(args, "\n"))
		err := cmd.Run()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("xpushgate %.60q: %v, want exit status 2", args, err)
		}
	}
}
