package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
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

// child is the test binary re-run as an elmored process.
type child struct {
	cmd    *exec.Cmd
	stderr syncBuf
	exited chan struct{} // closed once err holds Wait's result
	err    error
	url    string // base URL from the listen line
}

// startChild runs elmored with the space-separated args and the extra
// environment entries, and returns once it is listening. The process
// is killed at cleanup if a test leaves it running.
func startChild(t *testing.T, args string, env ...string) *child {
	t.Helper()
	c := &child{exited: make(chan struct{})}
	c.cmd = exec.Command(os.Args[0], "-test.run=^$")
	c.cmd.Env = append(append(os.Environ(), env...), childArgsEnv+"="+args)
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	t.Cleanup(func() {
		_ = c.cmd.Process.Kill()
		<-c.exited
	})
	deadline := time.Now().Add(10 * time.Second)
	for c.url == "" {
		if m := listenRe.FindStringSubmatch(c.stderr.String()); m != nil {
			c.url = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen line:\n%s", c.stderr.String())
		}
		select {
		case <-c.exited:
			t.Fatalf("elmored exited before listening: %v\n%s", c.err, c.stderr.String())
		case <-time.After(100 * time.Microsecond):
		}
	}
	return c
}

// sigterm sends SIGTERM to the child.
func (c *child) sigterm(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

// wait returns the child's exit error (nil is exit 0), failing the test
// if it has not exited within 15s.
func (c *child) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-c.exited:
		return c.err
	case <-time.After(15 * time.Second):
		t.Fatalf("elmored did not exit:\n%s", c.stderr.String())
		return nil
	}
}

// TestSIGTERMAfterFirstHealthyDrains sends SIGTERM the moment /healthz
// first answers 200, and — a tighter window still — the moment the
// listen line appears. The drain handler must already be installed by
// then: the process exits 0 through the drain path instead of dying
// from the default signal action.
func TestSIGTERMAfterFirstHealthyDrains(t *testing.T) {
	for round := 0; round < 6; round++ {
		atHealthz := round%2 == 0
		c := startChild(t, "-addr 127.0.0.1:0 -drain-timeout 5s")
		deadline := time.Now().Add(10 * time.Second)
		for atHealthz {
			resp, err := http.Get(c.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: /healthz never answered 200:\n%s", round, c.stderr.String())
			}
		}
		c.sigterm(t)
		if err := c.wait(t); err != nil {
			t.Fatalf("round %d (after healthz: %v): SIGTERM exit %v, want exit 0\n%s",
				round, atHealthz, err, c.stderr.String())
		}
		if !strings.Contains(c.stderr.String(), "drained clean") {
			t.Fatalf("round %d: exit did not go through the drain path:\n%s", round, c.stderr.String())
		}
	}
}

// TestProcessSIGTERMMidBatchResumesExactlyOnce is the kill-and-restart
// contract between real processes. SIGTERM lands in the middle of a
// journaled batch slowed by dispatch faults: the process must exit 0,
// dump its flight ring with the sigterm reason, and leave a journal.
// A second process on the same journal directory then resumes the
// batch, and the union of every stream holds each job exactly once.
func TestProcessSIGTERMMidBatchResumesExactlyOnce(t *testing.T) {
	const njobs = 150
	dir := t.TempDir()
	journalDir := filepath.Join(dir, "journal")
	flight := filepath.Join(dir, "flight.ndjson")
	body := specBody(njobs)

	// One worker at 25ms a job keeps the batch running well past the
	// 1s drain window on any number of CPUs.
	a := startChild(t, "-addr 127.0.0.1:0 -workers 1 -drain-timeout 1s -journal-dir "+journalDir+" -flight-dump "+flight,
		"ELMORE_FAULTS=batch.dispatch:delay:every=1;delay=25ms")
	idsA, sumA := streamBatch(t, a.url, "smoke", body, 3, func() { a.sigterm(t) })
	if err := a.wait(t); err != nil {
		t.Fatalf("mid-batch SIGTERM: exit %v, want exit 0\n%s", err, a.stderr.String())
	}
	if !sumA.Interrupted || len(idsA) >= njobs {
		t.Fatalf("first process delivered %d of %d jobs, summary %+v: SIGTERM did not land mid-batch",
			len(idsA), njobs, sumA)
	}
	dump, err := os.ReadFile(flight)
	if err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	if !bytes.Contains(dump, []byte(`"sigterm"`)) {
		t.Fatalf("flight dump has no sigterm record:\n%s", dump)
	}
	if entries, err := os.ReadDir(journalDir); err != nil || len(entries) == 0 {
		t.Fatalf("journal directory empty after SIGTERM (err %v)", err)
	}

	// Same journal directory, faults off: re-POST until complete.
	b := startChild(t, "-addr 127.0.0.1:0 -journal-dir "+journalDir, "ELMORE_FAULTS=")
	streams := [][]string{idsA}
	for {
		if len(streams) > 5 {
			t.Fatalf("batch still interrupted after %d re-POSTs", len(streams)-1)
		}
		ids, sum := streamBatch(t, b.url, "smoke", body, 0, nil)
		streams = append(streams, ids)
		if !sum.Interrupted {
			break
		}
	}
	b.sigterm(t)
	if err := b.wait(t); err != nil {
		t.Fatalf("second process: SIGTERM exit %v, want exit 0\n%s", err, b.stderr.String())
	}
	assertExactlyOnce(t, njobs, streams...)
}
