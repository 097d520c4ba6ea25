package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shell"
)

// Runner executes a single job attempt. Implementations must be safe for
// concurrent use by multiple goroutines.
type Runner interface {
	Run(ctx context.Context, job *Job) Result
}

// TimeoutRunner is a Runner that times a job itself, from the moment the
// job starts rather than from the moment Run is called — dist.Pool,
// whose workers queue credited jobs until a slot frees. The engine
// hands it Spec.Timeout through RunTimeout instead of a context
// deadline, which would expire on a job still waiting in that queue,
// and reads the verdict from Result.TimedOut.
type TimeoutRunner interface {
	Runner
	RunTimeout(ctx context.Context, job *Job, timeout time.Duration) Result
}

// FuncRunner adapts an in-process Go payload to the Runner interface. The
// function receives the job and returns stdout bytes and an error; exit
// code is derived (0 on nil error, 1 otherwise).
type FuncRunner func(ctx context.Context, job *Job) ([]byte, error)

// Run implements Runner.
func (f FuncRunner) Run(ctx context.Context, job *Job) Result {
	start := time.Now()
	out, err := f(ctx, job)
	res := Result{
		Job:    *job,
		Stdout: out,
		Start:  start,
		End:    time.Now(),
	}
	if err != nil {
		res.Err = err
		res.ExitCode = 1
	}
	return res
}

// ExecRunner runs jobs as real OS processes. Commands without shell
// metacharacters are exec'd directly (no /bin/sh fork — the fast path that
// keeps dispatch overhead low); anything needing expansion goes through
// "sh -c".
type ExecRunner struct {
	// Dir is the working directory for jobs ("" = inherit).
	Dir string
	// Shell overrides the shell binary (default "/bin/sh").
	Shell string
	// ForceShell routes every command through the shell, disabling the
	// direct-exec fast path.
	ForceShell bool
	// DiscardOutput wires child stdout/stderr straight to a shared
	// /dev/null descriptor instead of capture buffers. Fire-and-forget
	// workloads skip both the capture allocation and the per-process
	// open of /dev/null that os/exec performs for nil streams.
	DiscardOutput bool
	// TermGrace is the window between SIGTERM and SIGKILL when an
	// attempt is cancelled or times out: the whole process group first
	// gets SIGTERM (a chance to clean up scratch files), then SIGKILL
	// after TermGrace. 0 sends SIGKILL immediately. Either way the kill
	// targets the job's process group, so `sh -c 'work & wait'`
	// grandchildren die with the job instead of leaking.
	TermGrace time.Duration

	// lastArgv memoizes the most recent command→argv split. Job command
	// lines frequently repeat verbatim (fixed commands, retries, {}-less
	// templates), and a single-entry memo makes the repeat case free
	// without a growing cache. The argv slice is shared read-only:
	// exec.Command copies it before mutating anything.
	lastArgv atomic.Pointer[argvMemo]

	// envOnce/baseEnv cache os.Environ once per runner; every job append
	// re-copies (the cap is pinned to the length), so the shared base is
	// never mutated. Process-env changes made after the first job are
	// deliberately not observed.
	envOnce sync.Once
	baseEnv []string
}

type argvMemo struct {
	command string
	argv    []string
}

// countingReader counts bytes drained from the job's stdin source — the
// joblog Send column. The count is atomic because os/exec copies a
// non-file stdin on its own goroutine, which WaitDelay may abandon
// still running after Run returns.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (r *ExecRunner) environ() []string {
	r.envOnce.Do(func() {
		e := os.Environ()
		r.baseEnv = e[:len(e):len(e)]
	})
	return r.baseEnv
}

// outBufPool recycles capture buffers across job attempts. Buffers that
// grew beyond maxPooledBuf are dropped so one huge output cannot pin
// memory for the rest of the run.
var outBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func putOutBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		outBufPool.Put(b)
	}
}

// devNullFile returns a process-wide shared read/write /dev/null
// descriptor, nil if it cannot be opened (callers then fall back to
// os/exec's own per-process handling).
func devNullFile() *os.File {
	devNullOnce.Do(func() { devNull, _ = os.OpenFile(os.DevNull, os.O_RDWR, 0) })
	return devNull
}

var (
	devNullOnce sync.Once
	devNull     *os.File
)

// errNoCommand reports an empty rendered command line.
var errNoCommand = errors.New("core: empty command")

// Run implements Runner.
func (r *ExecRunner) Run(ctx context.Context, job *Job) Result {
	res := Result{Job: *job, ExitCode: -1, Start: time.Now()}

	argv, err := r.argv(job.Command)
	if err != nil {
		res.Err = err
		res.End = time.Now()
		return res
	}

	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir = r.Dir
	if len(job.Env) > 0 {
		// environ() caps the cached slice at its length, so this append
		// always copies instead of racing other jobs over one backing
		// array.
		cmd.Env = append(r.environ(), job.Env...)
	}
	var stdout, stderr *bytes.Buffer
	if r.DiscardOutput {
		if f := devNullFile(); f != nil {
			cmd.Stdout = f
			cmd.Stderr = f
		}
	} else {
		stdout = outBufPool.Get().(*bytes.Buffer)
		stderr = outBufPool.Get().(*bytes.Buffer)
		defer putOutBuf(stdout)
		defer putOutBuf(stderr)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
	}
	var stdinCount *countingReader
	if len(job.Stdin) > 0 {
		stdinCount = &countingReader{r: bytes.NewReader(job.Stdin)}
		cmd.Stdin = stdinCount
	}
	// Run the job in its own process group and, on cancellation, signal
	// the group rather than just the direct child. WaitDelay guarantees
	// Wait returns even when a surviving grandchild holds the stdout
	// pipe open (Go then closes the pipes and kills the direct child).
	setProcGroup(cmd)
	cmd.Cancel = func() error { return terminateGroup(cmd, r.TermGrace) }
	cmd.WaitDelay = r.TermGrace + 2*time.Second

	res.Start = time.Now()
	err = cmd.Run()
	res.End = time.Now()
	if ctx.Err() != nil {
		// Sweep group members that survived SIGTERM + grace (or that
		// were forked between signal and exit).
		killGroup(cmd)
	}
	// Copy captured output out of the pooled buffers; empty output (the
	// common fire-and-forget case) costs nothing.
	if stdout != nil && stdout.Len() > 0 {
		res.Stdout = append([]byte(nil), stdout.Bytes()...)
	}
	if stderr != nil && stderr.Len() > 0 {
		res.Stderr = append([]byte(nil), stderr.Bytes()...)
	}
	if stdinCount != nil {
		res.StdinSent = int(stdinCount.n.Load())
	}

	switch e := err.(type) {
	case nil:
		res.ExitCode = 0
	case *exec.ExitError:
		res.ExitCode = e.ExitCode()
	default:
		res.Err = err
	}
	if ctx.Err() != nil && res.ExitCode != 0 {
		res.Err = ctx.Err()
	}
	return res
}

func (r *ExecRunner) argv(command string) ([]string, error) {
	if command == "" {
		return nil, errNoCommand
	}
	if m := r.lastArgv.Load(); m != nil && m.command == command {
		return m.argv, nil
	}
	sh := r.Shell
	if sh == "" {
		sh = "/bin/sh"
	}
	var words []string
	if r.ForceShell || shell.NeedsShell(command) {
		words = []string{sh, "-c", command}
	} else if split, err := shell.Split(command); err == nil && len(split) > 0 {
		words = split
	} else {
		// Let the shell produce the diagnostic.
		words = []string{sh, "-c", command}
	}
	r.lastArgv.Store(&argvMemo{command: command, argv: words})
	return words, nil
}
