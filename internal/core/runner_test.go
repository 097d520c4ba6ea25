package core

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/args"
)

func TestExecRunnerDirect(t *testing.T) {
	r := &ExecRunner{}
	res := r.Run(context.Background(), &Job{Seq: 1, Command: "echo hello world"})
	if !res.OK() {
		t.Fatalf("res = %+v", res)
	}
	if got := strings.TrimSpace(string(res.Stdout)); got != "hello world" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestExecRunnerShellPipeline(t *testing.T) {
	r := &ExecRunner{}
	res := r.Run(context.Background(), &Job{Seq: 1, Command: "printf 'a\\nb\\nc\\n' | wc -l"})
	if !res.OK() {
		t.Fatalf("res err=%v exit=%d stderr=%s", res.Err, res.ExitCode, res.Stderr)
	}
	if got := strings.TrimSpace(string(res.Stdout)); got != "3" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestExecRunnerExitCode(t *testing.T) {
	r := &ExecRunner{}
	res := r.Run(context.Background(), &Job{Command: "sh -c 'exit 7'"})
	if res.ExitCode != 7 {
		t.Fatalf("exit = %d, want 7", res.ExitCode)
	}
	if res.OK() {
		t.Fatal("OK() true for nonzero exit")
	}
}

func TestExecRunnerSpawnError(t *testing.T) {
	r := &ExecRunner{}
	res := r.Run(context.Background(), &Job{Command: "/nonexistent/binary arg"})
	if res.OK() {
		t.Fatal("nonexistent binary reported OK")
	}
}

func TestExecRunnerEmptyCommand(t *testing.T) {
	r := &ExecRunner{}
	res := r.Run(context.Background(), &Job{Command: ""})
	if res.Err == nil {
		t.Fatal("empty command should error")
	}
}

func TestExecRunnerEnv(t *testing.T) {
	r := &ExecRunner{}
	res := r.Run(context.Background(), &Job{
		Command: "sh -c 'echo $MY_TEST_VAR'",
		Env:     []string{"MY_TEST_VAR=from-gopar"},
	})
	if got := strings.TrimSpace(string(res.Stdout)); got != "from-gopar" {
		t.Fatalf("env not passed: %q", got)
	}
}

func TestExecRunnerDir(t *testing.T) {
	dir := t.TempDir()
	r := &ExecRunner{Dir: dir}
	res := r.Run(context.Background(), &Job{Command: "pwd"})
	got := strings.TrimSpace(string(res.Stdout))
	// Resolve symlinks (macOS /tmp, etc.).
	want, _ := filepath.EvalSymlinks(dir)
	gotR, _ := filepath.EvalSymlinks(got)
	if gotR != want {
		t.Fatalf("pwd = %q, want %q", got, want)
	}
}

func TestExecRunnerStderrCaptured(t *testing.T) {
	r := &ExecRunner{}
	res := r.Run(context.Background(), &Job{Command: "sh -c 'echo oops >&2'"})
	if got := strings.TrimSpace(string(res.Stderr)); got != "oops" {
		t.Fatalf("stderr = %q", got)
	}
}

func TestExecRunnerContextKill(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r := &ExecRunner{}
	start := time.Now()
	res := r.Run(ctx, &Job{Command: "sleep 10"})
	if time.Since(start) > 5*time.Second {
		t.Fatal("context kill did not take effect")
	}
	if res.OK() {
		t.Fatal("killed job reported OK")
	}
}

func TestEngineEndToEndRealProcesses(t *testing.T) {
	// The paper's Fig 1 payload shape: record an identifier per task via
	// a real shell one-liner, then validate all outputs arrived.
	var buf bytes.Buffer
	s := mustSpec(t, "echo task-{#} input-{}", 4)
	s.Out = &buf
	s.KeepOrder = true
	stats, _ := run(t, s, &ExecRunner{}, args.Literal("a", "b", "c", "d", "e", "f", "g", "h"))
	if stats.Succeeded != 8 {
		t.Fatalf("stats = %+v", stats)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "task-1 input-a" || lines[7] != "task-8 input-h" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestEngineRealProcessLaunchRate(t *testing.T) {
	// Sanity check on the real dispatch path: launching 64 /bin/true
	// processes should take well under a second on any machine; this
	// guards against a pathological per-dispatch cost regression.
	if testing.Short() {
		t.Skip("short mode")
	}
	items := make([]string, 64)
	s := mustSpec(t, "true", 8)
	s.AppendArgsIfNoPlaceholder = false
	e, _ := NewEngine(s, &ExecRunner{})
	start := time.Now()
	stats, _, err := e.Run(context.Background(), args.Literal(items...))
	if err != nil || stats.Succeeded != 64 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("64 trivial processes took %v", el)
	}
}

func TestJoblogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	WriteJoblogHeader(&buf)
	now := time.Now()
	WriteJoblogLine(&buf, Result{
		Job:      Job{Seq: 1, Command: "echo a"},
		ExitCode: 0, Start: now, End: now.Add(1500 * time.Millisecond),
		Stdout: []byte("a\n"),
	})
	WriteJoblogLine(&buf, Result{
		Job:      Job{Seq: 2, Command: "fail cmd"},
		ExitCode: 3, Start: now, End: now.Add(time.Second),
	})
	WriteJoblogLine(&buf, Result{
		Job:      Job{Seq: 3, Command: "timed out"},
		ExitCode: -1, TimedOut: true, Start: now, End: now.Add(time.Second),
	})

	entries, err := ParseJoblog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Seq != 1 || entries[0].Exitval != 0 || entries[0].Command != "echo a" {
		t.Fatalf("entry0 = %+v", entries[0])
	}
	if entries[0].Runtime < 1.4 || entries[0].Runtime > 1.6 {
		t.Fatalf("runtime = %v", entries[0].Runtime)
	}
	if entries[1].Exitval != 3 {
		t.Fatalf("entry1 = %+v", entries[1])
	}
	if entries[2].Signal != 9 {
		t.Fatalf("entry2 = %+v", entries[2])
	}

	done := CompletedSeqs(entries)
	if !done[1] || done[2] || done[3] {
		t.Fatalf("completed = %v", done)
	}
}

func TestJoblogParseLenient(t *testing.T) {
	// Malformed lines — crash-torn tails, truncated fields, non-numeric
	// columns — are skipped, never fatal, and never feed CompletedSeqs;
	// intact lines around them still parse.
	in := JoblogHeader + "\n" +
		"notanumber\tx\t0\t0\t0\t0\t0\t0\tcmd\n" + // bad seq
		"1\tx\tshort\n" + // too few fields
		"2\t:\t0.0\t0.1\t0\t0\t0\t0\tok cmd\n" + // valid
		"3\t:\t0.0\t0.1\t0\t0\tNaN\t0\tbad exitval\n" +
		"4\t:\t0.0\t0.1\t0\t0\t0\tsig\tbad signal\n" +
		"\n" +
		"5\t:\t0.0\t0.1\t0\t0\t0\t0\tgood cmd\n" +
		"6\t:\t0.0\t0." // torn mid-write, no newline
	entries, err := ParseJoblog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Seq != 2 || entries[1].Seq != 5 {
		t.Fatalf("entries = %+v", entries)
	}
	done := CompletedSeqs(entries)
	if len(done) != 2 || !done[2] || !done[5] {
		t.Fatalf("completed = %v", done)
	}
}

func TestEngineJoblogResumeEndToEnd(t *testing.T) {
	// Run 1: two of four jobs fail. Run 2 with ResumeFrom: only the
	// failures rerun.
	var log1 bytes.Buffer
	fail := map[string]bool{"b": true, "d": true}
	runner := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		if fail[job.Args[0]] {
			return nil, os.ErrInvalid
		}
		return nil, nil
	})
	s := mustSpec(t, "", 2)
	s.Joblog = &log1
	stats, _ := run(t, s, runner, args.Literal("a", "b", "c", "d"))
	if stats.Failed != 2 {
		t.Fatalf("run1 stats = %+v", stats)
	}

	entries, err := ParseJoblog(&log1)
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	var mu2 = make(chan struct{}, 1)
	mu2 <- struct{}{}
	runner2 := FuncRunner(func(ctx context.Context, job *Job) ([]byte, error) {
		<-mu2
		ran = append(ran, job.Args[0])
		mu2 <- struct{}{}
		return nil, nil
	})
	s2 := mustSpec(t, "", 2)
	s2.ResumeFrom = CompletedSeqs(entries)
	stats2, _ := run(t, s2, runner2, args.Literal("a", "b", "c", "d"))
	if stats2.Skipped != 2 || stats2.Succeeded != 2 {
		t.Fatalf("run2 stats = %+v", stats2)
	}
	for _, v := range ran {
		if v != "b" && v != "d" {
			t.Fatalf("reran wrong job %q (ran=%v)", v, ran)
		}
	}
}

func TestFileSemaphore(t *testing.T) {
	dir := t.TempDir()
	sem, err := NewFileSemaphore(dir, 2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s1, err := sem.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sem.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("same slot acquired twice")
	}
	if _, ok := sem.TryAcquire(); ok {
		t.Fatal("third acquire should fail")
	}
	if sem.Held() != 2 {
		t.Fatalf("held = %d", sem.Held())
	}
	if err := sem.Release(s1); err != nil {
		t.Fatal(err)
	}
	if _, ok := sem.TryAcquire(); !ok {
		t.Fatal("acquire after release failed")
	}
	if err := sem.Release(99); err == nil {
		t.Fatal("releasing unheld slot should error")
	}
}

func TestFileSemaphoreStaleReclaim(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crashed holder: lock file with a dead PID.
	if err := os.WriteFile(filepath.Join(dir, "slot0.lock"), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sem, err := NewFileSemaphore(dir, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sem.TryAcquire(); !ok {
		t.Fatal("stale slot not reclaimed")
	}
}

func TestFileSemaphoreBlocksAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	a, _ := NewFileSemaphore(dir, 1, time.Millisecond)
	b, _ := NewFileSemaphore(dir, 1, time.Millisecond)
	slot, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := b.Acquire(ctx); err == nil {
		t.Fatal("second instance acquired a held semaphore")
	}
	a.Release(slot)
	if _, ok := b.TryAcquire(); !ok {
		t.Fatal("second instance cannot acquire after release")
	}
}

func TestFileSemaphoreInvalid(t *testing.T) {
	if _, err := NewFileSemaphore(t.TempDir(), 0, 0); err == nil {
		t.Fatal("0 slots accepted")
	}
}

func TestExecRunnerDiscardOutput(t *testing.T) {
	r := &ExecRunner{DiscardOutput: true}
	res := r.Run(context.Background(), &Job{Seq: 1, Command: "echo swallowed"})
	if !res.OK() {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Stdout) != 0 || len(res.Stderr) != 0 {
		t.Fatalf("discard mode captured output: %q / %q", res.Stdout, res.Stderr)
	}
	// Failures still report their exit code.
	res = r.Run(context.Background(), &Job{Seq: 2, Command: "sh -c 'echo noise; exit 3'"})
	if res.ExitCode != 3 {
		t.Fatalf("exit = %d, want 3", res.ExitCode)
	}
}

func TestExecRunnerArgvMemo(t *testing.T) {
	// Alternate commands so the single-entry memo is repeatedly hit,
	// replaced, and re-hit; each run must still execute its own argv.
	r := &ExecRunner{}
	for i := 0; i < 3; i++ {
		for _, want := range []string{"one", "two", "one"} {
			res := r.Run(context.Background(), &Job{Seq: 1, Command: "echo " + want})
			if got := strings.TrimSpace(string(res.Stdout)); got != want {
				t.Fatalf("stdout = %q, want %q", got, want)
			}
		}
	}
}

func TestExecRunnerEnvCachedBaseIsolated(t *testing.T) {
	// Two jobs with different Env must not bleed variables into each
	// other through the shared cached base environ.
	r := &ExecRunner{}
	a := r.Run(context.Background(), &Job{Seq: 1, Command: "sh -c 'echo $PR4_A$PR4_B'", Env: []string{"PR4_A=a"}})
	b := r.Run(context.Background(), &Job{Seq: 2, Command: "sh -c 'echo $PR4_A$PR4_B'", Env: []string{"PR4_B=b"}})
	if got := strings.TrimSpace(string(a.Stdout)); got != "a" {
		t.Fatalf("job a saw %q, want %q", got, "a")
	}
	if got := strings.TrimSpace(string(b.Stdout)); got != "b" {
		t.Fatalf("job b saw %q, want %q", got, "b")
	}
}

// envLines runs `env` through r and returns the child's environment
// entries that start with prefix.
func envLines(t *testing.T, r *ExecRunner, job *Job, prefix string) []string {
	t.Helper()
	job.Command = "env"
	res := r.Run(context.Background(), job)
	if !res.OK() {
		t.Fatalf("env: err=%v exit=%d stderr=%s", res.Err, res.ExitCode, res.Stderr)
	}
	var got []string
	for _, line := range strings.Split(string(res.Stdout), "\n") {
		if strings.HasPrefix(line, prefix) {
			got = append(got, line)
		}
	}
	return got
}

func TestExecRunnerPWDFollowsDir(t *testing.T) {
	dir := t.TempDir()
	got := envLines(t, &ExecRunner{Dir: dir}, &Job{Seq: 1}, "PWD=")
	if len(got) != 1 || got[0] != "PWD="+dir {
		t.Fatalf("PWD entries = %q, want one PWD=%s", got, dir)
	}
}

func TestExecRunnerJobEnvOverridesInherited(t *testing.T) {
	t.Setenv("GOPAR_PIN_VAR", "inherited")
	got := envLines(t, &ExecRunner{}, &Job{Seq: 1, Env: []string{"GOPAR_PIN_VAR=job"}}, "GOPAR_PIN_VAR=")
	if len(got) != 1 || got[0] != "GOPAR_PIN_VAR=job" {
		t.Fatalf("GOPAR_PIN_VAR entries = %q, want exactly the job's", got)
	}
}

func TestExecRunnerNotFoundNamesCommand(t *testing.T) {
	res := (&ExecRunner{}).Run(context.Background(), &Job{Seq: 1, Command: "gopar-no-such-command arg"})
	if res.OK() || res.Err == nil || !strings.Contains(res.Err.Error(), "gopar-no-such-command") {
		t.Fatalf("res = %+v, want an error naming the command", res)
	}
}

func TestExecRunnerLookupFailureNotCached(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
	r := &ExecRunner{}
	job := &Job{Seq: 1, Command: "gopar-late-install"}
	if res := r.Run(context.Background(), job); res.OK() {
		t.Fatalf("missing command reported OK: %+v", res)
	}
	if err := os.WriteFile(filepath.Join(dir, "gopar-late-install"), []byte("#!/bin/sh\necho late\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	res := r.Run(context.Background(), job)
	if !res.OK() || strings.TrimSpace(string(res.Stdout)) != "late" {
		t.Fatalf("after install: err=%v exit=%d stdout=%q", res.Err, res.ExitCode, res.Stdout)
	}
}

func TestExecRunnerStdinSent(t *testing.T) {
	r := &ExecRunner{}
	res := r.Run(context.Background(), &Job{Seq: 1, Command: "cat", Stdin: []byte("hello\n")})
	if !res.OK() || string(res.Stdout) != "hello\n" || res.StdinSent != 6 {
		t.Fatalf("cat: err=%v stdout=%q sent=%d, want hello and 6", res.Err, res.Stdout, res.StdinSent)
	}
	// More than a pipe buffer holds, to a job that reads none of it.
	big := bytes.Repeat([]byte("x"), 1<<20)
	res = r.Run(context.Background(), &Job{Seq: 2, Command: "true", Stdin: big})
	if !res.OK() || res.StdinSent >= len(big) {
		t.Fatalf("true: err=%v exit=%d sent=%d, want success and fewer than %d", res.Err, res.ExitCode, res.StdinSent, len(big))
	}
}

func TestExecRunnerTermIgnoredKilledAtGrace(t *testing.T) {
	const grace = 300 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	r := &ExecRunner{TermGrace: grace}
	done := make(chan Result, 1)
	ready := filepath.Join(t.TempDir(), "ready")
	go func() {
		done <- r.Run(ctx, &Job{Seq: 1, Command: "trap '' TERM; : > '" + ready + "'; sleep 30 & wait"})
	}()
	for {
		if _, err := os.Stat(ready); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	start := time.Now()
	res := <-done
	if el := time.Since(start); el > grace+time.Second {
		t.Fatalf("TERM-ignoring job took %v after cancel, want about TermGrace (%v)", el, grace)
	}
	if res.OK() {
		t.Fatalf("cancelled job reported OK: %+v", res)
	}
}

// A backgrounded grandchild that keeps stdout open must not hold the
// job: it succeeds as soon as its own process exits.
func TestExecRunnerBackgroundedGrandchild(t *testing.T) {
	start := time.Now()
	res := (&ExecRunner{}).Run(context.Background(), &Job{Seq: 1, Command: "sh -c 'sleep 4 & echo hi'"})
	if el := time.Since(start); el > time.Second {
		t.Fatalf("job took %v; the grandchild held it open", el)
	}
	if !res.OK() || strings.TrimSpace(string(res.Stdout)) != "hi" {
		t.Fatalf("err=%v exit=%d stdout=%q, want success and hi", res.Err, res.ExitCode, res.Stdout)
	}
}

// A descendant that leaves the job's process group (setsid) and keeps
// the job's stdout must not write into a later job's captured output.
func TestExecRunnerEscapedDescendantOutputIsolated(t *testing.T) {
	if _, err := exec.LookPath("setsid"); err != nil {
		t.Skip("no setsid:", err)
	}
	r := &ExecRunner{}
	// The short sleep gives setsid time to leave the group before the
	// job ends.
	first := r.Run(context.Background(), &Job{Seq: 1, Command: "setsid sh -c 'sleep 0.3; echo leaked' & sleep 0.1"})
	if !first.OK() {
		t.Fatalf("job 1: err=%v exit=%d", first.Err, first.ExitCode)
	}
	res := r.Run(context.Background(), &Job{Seq: 2, Command: "sleep 0.5; echo mine"})
	if !res.OK() || string(res.Stdout) != "mine\n" {
		t.Fatalf("job 2: err=%v exit=%d stdout=%q, want only mine", res.Err, res.ExitCode, res.Stdout)
	}
}

// A cached $PATH lookup whose binary has moved to another $PATH
// directory is looked up again rather than failing every later job.
func TestExecRunnerMovedBinaryFoundAgain(t *testing.T) {
	first, second := t.TempDir(), t.TempDir()
	t.Setenv("PATH", first+string(os.PathListSeparator)+second+string(os.PathListSeparator)+os.Getenv("PATH"))
	if err := os.WriteFile(filepath.Join(first, "gopar-moving"), []byte("#!/bin/sh\necho moved\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	r := &ExecRunner{}
	job := &Job{Seq: 1, Command: "gopar-moving"}
	if res := r.Run(context.Background(), job); !res.OK() {
		t.Fatalf("before move: err=%v exit=%d", res.Err, res.ExitCode)
	}
	if err := os.Rename(filepath.Join(first, "gopar-moving"), filepath.Join(second, "gopar-moving")); err != nil {
		t.Fatal(err)
	}
	res := r.Run(context.Background(), job)
	if !res.OK() || strings.TrimSpace(string(res.Stdout)) != "moved" {
		t.Fatalf("after move: err=%v exit=%d stdout=%q", res.Err, res.ExitCode, res.Stdout)
	}
}
