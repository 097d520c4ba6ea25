package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/jobd"
	"repro/internal/wal"
)

// The daemon crash harness extends the one-shot SIGKILL contract
// (crash_test.go) to the persistent service: submits acked by the
// daemon are never lost, and a job whose completion was durable before
// the kill never executes again after the restart. In the kill window,
// in-flight jobs (intent logged, no completion) legitimately re-run —
// at-least-once is the floor for external side effects — but the
// restarted daemon must finish every one of them.

func serveCrashTrialCount(t *testing.T) int {
	if s := os.Getenv("GOPAR_SERVE_CRASH_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad GOPAR_SERVE_CRASH_TRIALS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 1
	}
	return 3
}

func serveCrashTrial(t *testing.T, r *rand.Rand, nJobs int) {
	t.Helper()
	dir := t.TempDir()
	effects := filepath.Join(dir, "effects")
	walDir := filepath.Join(dir, "crashq", "wal")
	serveArgs := []string{"-slots", "4", "-q", "-wal-sync", "always"}

	base, _, proc := startServeProc(t, dir, serveArgs...)
	c := jobd.NewClient(base, nil)
	ctx := context.Background()

	cmds := make([]string, nJobs)
	for i := range cmds {
		cmds[i] = fmt.Sprintf("echo %d >> %s; sleep 0.005", i+1, effects)
	}
	seqs, err := c.Submit(ctx, "crashq", cmds...)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(seqs) != nJobs {
		t.Fatalf("acked %d submits, want %d", len(seqs), nJobs)
	}

	// SIGKILL the daemon at a randomized point mid-run: no drain, no
	// final WAL flush, running children orphaned.
	delay := time.Duration(5+r.Intn(120)) * time.Millisecond
	time.Sleep(delay)
	proc.Kill()
	// Orphaned `echo >> effects` children can outlive the daemon by a
	// few ms; let them land before snapshotting.
	time.Sleep(200 * time.Millisecond)

	// What was durably complete at the kill? (wal-sync=always: every
	// recorded completion. The submit acks themselves are backed by the
	// fsynced submit records, checked below via "nothing lost".)
	st, err := wal.Replay(walDir)
	if err != nil {
		t.Fatalf("replay after kill: %v", err)
	}
	durable := st.CompletedOK()
	ran, offset := appendedSeqs(t, effects, 0)
	t.Logf("killed after %v: %d durable completions, %d effects", delay, len(durable), len(ran))

	// Restart on the same state directory: the queue resumes, the
	// backlog drains.
	base2, _, _ := startServeProc(t, dir, serveArgs...)
	c2 := jobd.NewClient(base2, nil)
	stats := awaitBacklogDrained(t, c2, "crashq", 120*time.Second)

	// Exactly-once: no durably-completed job may have re-executed.
	reran, _ := appendedSeqs(t, effects, offset)
	for seq := range reran {
		if durable[seq] {
			t.Errorf("job %d re-ran after its completion was durable", seq)
		}
	}
	// Nothing lost: every acked submit executed at least once and is
	// terminal in the resumed daemon.
	executed, _ := appendedSeqs(t, effects, 0)
	for seq := 1; seq <= nJobs; seq++ {
		if executed[seq] == 0 {
			t.Errorf("acked job %d never executed", seq)
		}
	}
	if stats.Submitted != nJobs {
		t.Errorf("resumed daemon sees %d submitted, want %d", stats.Submitted, nJobs)
	}
	if got := stats.OK + stats.Failed + stats.Cancelled; got != nJobs {
		t.Errorf("only %d of %d jobs terminal after resume: %+v", got, nJobs, stats)
	}
	if stats.Failed != 0 {
		// The echo jobs cannot fail on their own; a failure here means a
		// kill-window job was mishandled.
		t.Errorf("resumed run reports %d failed jobs: %+v", stats.Failed, stats)
	}
}

func TestServeCrashExactlyOnce(t *testing.T) {
	trials := serveCrashTrialCount(t)
	seed := time.Now().UnixNano()
	if s := os.Getenv("GOPAR_CRASH_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad GOPAR_CRASH_SEED=%q", s)
		}
		seed = n
	}
	t.Logf("seed=%d trials=%d (rerun a failure with GOPAR_CRASH_SEED=%d)", seed, trials, seed)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		serveCrashTrial(t, r, 40)
		if t.Failed() {
			t.Fatalf("stopping after failing trial %d", i)
		}
	}
}

// TestServeCrashDuringSubmitBurst kills the daemon while 10 clients are
// mid-burst, then verifies the resumed daemon's ledger: every seq the
// clients got an ack for is present and reaches a terminal state.
func TestServeCrashDuringSubmitBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("crash burst skipped in -short")
	}
	dir := t.TempDir()
	serveArgs := []string{"-slots", "4", "-q", "-wal-sync", "always", "-runner", "noop"}
	base, _, proc := startServeProc(t, dir, serveArgs...)
	c := jobd.NewClient(base, nil)
	ctx := context.Background()

	const clients = 10
	acked := make(chan int, 4096)
	done := make(chan struct{}, clients)
	for cl := 0; cl < clients; cl++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				seqs, err := c.Submit(ctx, "burst", "x")
				if err != nil {
					return // daemon died mid-burst: expected
				}
				for _, s := range seqs {
					acked <- s
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	proc.Kill()
	for i := 0; i < clients; i++ {
		<-done
	}
	close(acked)
	ackedSeqs := map[int]bool{}
	for s := range acked {
		ackedSeqs[s] = true
	}
	if len(ackedSeqs) == 0 {
		t.Fatal("no submits acked before the kill")
	}

	base2, _, _ := startServeProc(t, dir, serveArgs...)
	c2 := jobd.NewClient(base2, nil)
	stats := awaitBacklogDrained(t, c2, "burst", 60*time.Second)
	if stats.Submitted < len(ackedSeqs) {
		t.Fatalf("resumed daemon sees %d submits, but %d were acked", stats.Submitted, len(ackedSeqs))
	}
	for seq := range ackedSeqs {
		st, err := c2.Status(ctx, "burst", seq, 10*time.Second)
		if err != nil {
			t.Fatalf("acked job %d lost after restart: %v", seq, err)
		}
		if st.State != "ok" && st.State != "failed" {
			t.Fatalf("acked job %d not terminal: %+v", seq, st)
		}
	}
}
