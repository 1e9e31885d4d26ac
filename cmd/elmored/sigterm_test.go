package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// childArgsEnv, when set, turns the test binary into an elmored
// process running run() with these space-separated flags, so a test
// can signal a real process and read its exit status.
const childArgsEnv = "ELMORED_TEST_CHILD_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgsEnv); ok {
		if err := run(strings.Fields(args), os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "elmored:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMAfterFirstHealthyDrains sends SIGTERM the moment /healthz
// first answers 200, and — a tighter window still — the moment the
// listen line appears. The drain handler must already be installed by
// then: the process exits 0 through the drain path instead of dying
// from the default signal action.
func TestSIGTERMAfterFirstHealthyDrains(t *testing.T) {
	for round := 0; round < 6; round++ {
		atHealthz := round%2 == 0
		var stderr syncBuf
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), childArgsEnv+"=-addr 127.0.0.1:0 -drain-timeout 5s")
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		kill := func() {
			_ = cmd.Process.Kill()
			<-exited
		}

		url := waitListen(t, &stderr, exited, kill)
		deadline := time.Now().Add(10 * time.Second)
		for atHealthz {
			resp, err := http.Get(url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				kill()
				t.Fatalf("round %d: /healthz never answered 200:\n%s", round, stderr.String())
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			kill()
			t.Fatal(err)
		}
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("round %d (after healthz: %v): SIGTERM exit %v, want exit 0\n%s",
					round, atHealthz, err, stderr.String())
			}
		case <-time.After(15 * time.Second):
			kill()
			t.Fatalf("round %d: elmored did not exit after SIGTERM", round)
		}
		if !strings.Contains(stderr.String(), "drained clean") {
			t.Fatalf("round %d: exit did not go through the drain path:\n%s", round, stderr.String())
		}
	}
}

// waitListen polls the child's stderr for its listen line and returns
// the base URL, failing the test if the child exits first.
func waitListen(t *testing.T, stderr *syncBuf, exited chan error, kill func()) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRe.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-exited:
			t.Fatalf("elmored exited before listening: %v\n%s", err, stderr.String())
		case <-time.After(100 * time.Microsecond):
		}
	}
	kill()
	t.Fatalf("no listen line:\n%s", stderr.String())
	return ""
}
