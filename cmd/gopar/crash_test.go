package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// The SIGKILL crash harness: run a real gopar binary with a --wal,
// kill it at a randomized point, resume, and repeat until the run
// completes. After every attempt it checks the exactly-once contract:
//
//   - A job whose completion record was durable before a resume must
//     NOT run again (its side effect must not reappear).
//   - A job in the crash window — in-flight, or finished but with its
//     completion not yet durable — may legitimately run again
//     (at-least-once is the best any log can do for external side
//     effects), but must be re-run by the resume so nothing is lost.
//   - After the final clean run every job has executed at least once
//     and the log replays to all-completed with nothing in flight.
//
// Trial count: GOPAR_CRASH_TRIALS (CI sets 100+ for the required
// >=100 randomized kill points; the local default keeps `go test`
// fast). Each trial usually lands several kills since resumes are
// killed too.

// crashTrialCount returns how many randomized trials to run.
func crashTrialCount(t *testing.T) int {
	if s := os.Getenv("GOPAR_CRASH_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad GOPAR_CRASH_TRIALS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 3
	}
	return 12
}

// appendedSeqs reads the effects file from offset and returns the job
// seqs appended since, plus the new offset.
func appendedSeqs(t *testing.T, path string, offset int64) (map[int]int, int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0
	}
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) < offset {
		t.Fatalf("effects file shrank: %d < %d", len(b), offset)
	}
	seqs := make(map[int]int)
	for _, line := range strings.Split(string(b[offset:]), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		n, err := strconv.Atoi(line)
		if err != nil {
			t.Fatalf("bad effects line %q", line)
		}
		seqs[n]++
	}
	return seqs, int64(len(b))
}

// crashTrial runs one kill/resume cycle to convergence and returns how
// many SIGKILLs it landed and how many torn tails replay repaired.
func crashTrial(t *testing.T, r *rand.Rand, policy string, nJobs int) (kills, tornTails int) {
	t.Helper()
	dir := t.TempDir()
	effects := filepath.Join(dir, "effects")
	walDir := filepath.Join(dir, "wal")

	// The template must consume {} — with no placeholder gopar appends
	// the arg, which would corrupt the trailing sleep. Args are the seq
	// numbers themselves, so {} doubles as the effect marker.
	argv := []string{
		"--wal", walDir, "--wal-sync", policy,
		"-j", "4", "--quiet", "--shell",
		fmt.Sprintf("echo {} >> %s; sleep 0.005", effects),
		":::",
	}
	for i := 1; i <= nJobs; i++ {
		argv = append(argv, strconv.Itoa(i))
	}

	var offset int64
	executed := make(map[int]bool)
	for attempt := 0; ; attempt++ {
		if attempt > 60 {
			t.Fatalf("policy=%s: no convergence after %d attempts", policy, attempt)
		}
		run := argv
		var durable map[int]bool
		if attempt > 0 {
			st, err := wal.Replay(walDir)
			if errors.Is(err, fs.ErrNotExist) {
				// Killed before gopar created the log: nothing is durable.
				st, err = &wal.State{}, nil
			}
			if err != nil {
				t.Fatalf("policy=%s attempt=%d: replay before resume: %v", policy, attempt, err)
			}
			tornTails += st.TornTails
			durable = st.CompletedOK()
			run = append([]string{"--resume"}, argv...)
		}

		cmd := exec.Command(goparPath, run...)
		var output strings.Builder
		cmd.Stdout = &output
		cmd.Stderr = &output
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Kill the first attempt always; resumes with 40% probability so
		// multi-crash chains happen but the trial still converges.
		kill := attempt == 0 || r.Intn(100) < 40
		var killed bool
		if kill {
			// The first attempt's kill lands inside the run: 40 jobs of
			// 5 ms on 4 slots take at least 50 ms, so a 2–31 ms delay
			// never finds gopar already exited.
			delay := time.Duration(2+r.Intn(100)) * time.Millisecond
			if attempt == 0 {
				delay = time.Duration(2+r.Intn(30)) * time.Millisecond
			}
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case <-time.After(delay):
				cmd.Process.Kill() // SIGKILL: no cleanup, no final flush
				<-done
				killed = true
				kills++
				// Jobs run in their own process groups, so an in-flight
				// `echo >> effects` can outlive gopar by a few ms. Let
				// orphans drain before snapshotting the effects file.
				time.Sleep(150 * time.Millisecond)
			case err := <-done:
				if err != nil {
					t.Fatalf("policy=%s attempt=%d: gopar failed: %v\n%s", policy, attempt, err, output.String())
				}
			}
		} else if err := cmd.Wait(); err != nil {
			t.Fatalf("policy=%s attempt=%d: gopar failed: %v\n%s", policy, attempt, err, output.String())
		}

		var ran map[int]int
		ran, offset = appendedSeqs(t, effects, offset)
		for seq, n := range ran {
			executed[seq] = true
			// The exactly-once check: a durably-completed job must never
			// execute again after a resume.
			if durable[seq] {
				t.Errorf("policy=%s attempt=%d: job %d re-ran %d time(s) after its completion was durable",
					policy, attempt, seq, n)
			}
		}

		if !killed {
			break
		}
	}

	// Final state: nothing lost, log fully settled.
	for seq := 1; seq <= nJobs; seq++ {
		if !executed[seq] {
			t.Errorf("policy=%s: job %d never executed", policy, seq)
		}
	}
	st, err := wal.Replay(walDir)
	if err != nil {
		t.Fatalf("policy=%s: final replay: %v", policy, err)
	}
	tornTails += st.TornTails
	if got := len(st.CompletedOK()); got != nJobs {
		t.Errorf("policy=%s: final log has %d completed-ok jobs, want %d", policy, got, nJobs)
	}
	if len(st.InFlight) != 0 {
		t.Errorf("policy=%s: final log leaves %d jobs in flight: %v", policy, len(st.InFlight), st.InFlight)
	}
	return kills, tornTails
}

func TestCrashHarness(t *testing.T) {
	if testing.Short() && os.Getenv("GOPAR_CRASH_TRIALS") == "" {
		t.Log("running reduced trial count under -short")
	}
	trials := crashTrialCount(t)
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

	policies := []string{"always", "interval", "never"}
	totalKills, totalTorn := 0, 0
	for i := 0; i < trials; i++ {
		policy := policies[i%len(policies)]
		kills, torn := crashTrial(t, r, policy, 40)
		totalKills += kills
		totalTorn += torn
		if t.Failed() {
			t.Fatalf("stopping after failing trial %d (policy=%s)", i, policy)
		}
	}
	t.Logf("%d trials: %d SIGKILLs landed, %d torn tails repaired on replay", trials, totalKills, totalTorn)
	if totalKills < trials {
		t.Errorf("only %d kills across %d trials; harness should land at least one per trial", totalKills, trials)
	}
}

// TestCrashHarnessDistSessionLoss crosses the WAL with distributed
// session retirement: a worker dies mid-run (the pool re-dispatches its
// jobs on a fresh session), then gopar itself is SIGKILLed, then the
// run resumes against the surviving worker. Durably-completed jobs must
// not re-run even though the pool's own re-dispatch path was exercised
// in the same run.
func TestCrashHarnessDistSessionLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("dist crash trial skipped in -short")
	}
	dir := t.TempDir()
	effects := filepath.Join(dir, "effects")
	walDir := filepath.Join(dir, "wal")
	gopardPath := buildGopard(t, dir)

	a0, _ := startGopard(t, gopardPath, "-slots", "2", "-name", "cw0")
	a1, _, victim := startGopardProc(t, gopardPath, "-slots", "2", "-name", "cw1")

	const nJobs = 30
	argv := []string{
		"--wal", walDir, "--wal-sync", "always",
		"-S", "2/" + a0 + ",2/" + a1, "--retries", "3", "--quiet", "--shell",
		fmt.Sprintf("echo {} >> %s; sleep 0.01", effects),
		":::",
	}
	for i := 1; i <= nJobs; i++ {
		argv = append(argv, strconv.Itoa(i))
	}

	// Run 1: kill the worker mid-run, then SIGKILL gopar shortly after —
	// the crash lands while the pool is re-dispatching the lost session's
	// jobs.
	cmd := exec.Command(goparPath, argv...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	victim.Kill()
	time.Sleep(60 * time.Millisecond)
	cmd.Process.Kill()
	cmd.Wait()
	time.Sleep(150 * time.Millisecond)

	st, err := wal.Replay(walDir)
	if err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	durable := st.CompletedOK()
	_, offset := appendedSeqs(t, effects, 0)

	// Run 2: resume on the surviving worker only.
	resume := append([]string{"--resume"}, argv...)
	for i, a := range resume {
		if a == "2/"+a0+",2/"+a1 {
			resume[i] = "2/" + a0
		}
	}
	out, err := exec.Command(goparPath, resume...).CombinedOutput()
	if err != nil {
		t.Fatalf("resume run failed: %v\n%s", err, out)
	}

	ran, _ := appendedSeqs(t, effects, offset)
	for seq := range ran {
		if durable[seq] {
			t.Errorf("job %d re-ran on resume despite a durable completion", seq)
		}
	}
	executed, _ := appendedSeqs(t, effects, 0)
	for seq := 1; seq <= nJobs; seq++ {
		if executed[seq] == 0 {
			t.Errorf("job %d never executed", seq)
		}
	}
	final, err := wal.Replay(walDir)
	if err != nil {
		t.Fatalf("final replay: %v", err)
	}
	if got := len(final.CompletedOK()); got != nJobs {
		t.Errorf("final log has %d completed-ok jobs, want %d", got, nJobs)
	}
}
