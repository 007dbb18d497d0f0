package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// buildQMKP compiles this command into a temporary directory and returns
// the binary's path.
func buildQMKP(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qmkp")
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// exitCode runs the binary and returns its exit status.
func exitCode(t *testing.T, bin string, args ...string) int {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	}
	t.Fatalf("qmkp %v: %v\n%s", args, err, out)
	return -1
}

// Regression: -k 0 used to exit 0 for greedy and tabu (greedy printing a
// single vertex, which is no 0-plex) and 1 for bs, bb and naive. Every
// algorithm that reads -k, and the -reduce pass, must reject it as a bad
// request (exit 2); qnclub does not read -k.
func TestKBelowOneIsBadRequest(t *testing.T) {
	bin := buildQMKP(t)
	for _, args := range [][]string{
		{"-algo", "qmkp"},
		{"-algo", "qtkp", "-T", "3"},
		{"-algo", "qamkp"},
		{"-algo", "bb"},
		{"-algo", "bs"},
		{"-algo", "naive"},
		{"-algo", "greedy"},
		{"-algo", "tabu"},
		{"-algo", "qnclub", "-reduce"},
	} {
		args = append(args, "-k", "0", "-gen", "10,23")
		if got := exitCode(t, bin, args...); got != 2 {
			t.Errorf("qmkp %v: exit %d, want 2", args, got)
		}
	}
	if got := exitCode(t, bin, "-algo", "qnclub", "-k", "0", "-gen", "8,12"); got != 0 {
		t.Errorf("qnclub ignores -k, but -k 0 exited %d", got)
	}
}
