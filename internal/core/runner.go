package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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
	// /dev/null descriptor instead of capture files. Fire-and-forget
	// workloads skip reading the output back.
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
	// os.StartProcess does not modify it.
	lastArgv atomic.Pointer[argvMemo]

	// paths caches exec.LookPath per bare command name (string →
	// string). Only successful lookups are stored, so a command
	// installed after a failed job is found by the next one, and an
	// entry whose binary has gone is dropped and looked up again.
	paths sync.Map

	// envOnce/baseEnv hold the child environment shared by jobs without
	// an Env of their own, built once per runner; merging a job's Env
	// copies it. Process-env changes made after the first job are
	// deliberately not observed.
	envOnce sync.Once
	baseEnv []string
}

type argvMemo struct {
	command string
	argv    []string
}

// captureFiles receive one attempt's stdout and stderr. They are
// nameless files (newCaptureFile) rather than pipes, so the attempt is over when its
// process exits — a backgrounded grandchild holding stdout open cannot
// keep it running — and no goroutine copies output while it runs. Each
// attempt gets a fresh pair, closed once read back: a descendant that
// outlives the job, in its group or not, holds only this pair and can
// write into no other job's output.
type captureFiles struct{ stdout, stderr *os.File }

// devNullFile returns a process-wide shared read/write /dev/null
// descriptor, the stdin of every job without input and the output of
// DiscardOutput jobs.
func devNullFile() (*os.File, error) {
	devNullOnce.Do(func() { devNull, devNullErr = os.OpenFile(os.DevNull, os.O_RDWR, 0) })
	return devNull, devNullErr
}

var (
	devNullOnce sync.Once
	devNull     *os.File
	devNullErr  error
)

// errNoCommand reports an empty rendered command line.
var errNoCommand = errors.New("core: empty command")

// Run implements Runner.
func (r *ExecRunner) Run(ctx context.Context, job *Job) Result {
	res := Result{Job: *job, ExitCode: -1, Start: time.Now()}
	if err := r.run(ctx, job, &res); err != nil {
		res.Err = err
		res.End = time.Now()
	}
	if ctx.Err() != nil && res.ExitCode != 0 {
		res.Err = ctx.Err()
	}
	return res
}

// run starts job, waits for its process and fills in res's times, exit
// code, output and StdinSent. It returns what kept the job from running
// or its output from being read.
func (r *ExecRunner) run(ctx context.Context, job *Job, res *Result) error {
	argv, err := r.argv(job.Command)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	null, err := devNullFile()
	if err != nil {
		return err
	}
	files := []*os.File{null, null, null}
	var capture *captureFiles
	if !r.DiscardOutput {
		if capture, err = newCapture(); err != nil {
			return err
		}
		defer capture.close()
		files[1], files[2] = capture.stdout, capture.stderr
	}
	var stdin *os.File
	if len(job.Stdin) > 0 {
		if files[0], stdin, err = os.Pipe(); err != nil {
			return err
		}
	}

	// The spawn and Wait block this thread in syscalls while still
	// holding its P. A goroutine the caller just readied — the engine's
	// collector, woken by the previous result — would sit in that P's
	// run slot until sysmon retakes the P, up to 10 ms: long enough
	// for --halt now to miss several jobs. Let it run first.
	runtime.Gosched()
	res.Start = time.Now()
	p, err := r.start(argv, &os.ProcAttr{
		Dir: r.Dir, Env: r.environ(job.Env), Files: files, Sys: procAttrSys,
	})
	if stdin != nil {
		files[0].Close()
	}
	if err != nil {
		if stdin != nil {
			stdin.Close()
		}
		return err
	}
	var sent chan int
	if stdin != nil {
		// One writer feeds the pipe and closes it so the job sees EOF.
		// The count is what the pipe accepted — the joblog Send column.
		sent = make(chan int, 1)
		go func() {
			n, _ := stdin.Write(job.Stdin)
			stdin.Close()
			sent <- n
		}()
	}

	g := &procGroup{p: p}
	stop := context.AfterFunc(ctx, func() { g.cancel(r.TermGrace) })
	state, err := p.Wait()
	res.End = time.Now()
	stop()
	g.reaped(ctx.Err() != nil)

	if sent != nil {
		// Unblocks a write that a surviving reader never drained.
		stdin.Close()
		res.StdinSent = <-sent
	}
	var readErr error
	if capture != nil {
		readErr = capture.read(res)
	}
	if err != nil {
		return err
	}
	res.ExitCode = state.ExitCode()
	return readErr
}

// procGroup signals a started job's process group on cancellation: at
// once SIGKILL, or SIGTERM and SIGKILL after the grace window. Once the
// leader is reaped its pid may be reused, so signals stop.
type procGroup struct {
	p     *os.Process
	mu    sync.Mutex
	done  bool
	timer *time.Timer
}

func (g *procGroup) cancel(grace time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		return
	}
	if grace <= 0 {
		signalGroup(g.p, true)
		return
	}
	signalGroup(g.p, false)
	g.timer = time.AfterFunc(grace, func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		if !g.done {
			signalGroup(g.p, true)
		}
	})
}

// reaped records that Wait returned. A cancelled job's group is swept
// with SIGKILL: members that survived SIGTERM or forked after it still
// hold the reaped leader's pgid.
func (g *procGroup) reaped(cancelled bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done = true
	if g.timer != nil {
		g.timer.Stop()
	}
	if cancelled {
		signalGroup(g.p, true)
	}
}

// newCapture returns a fresh capture-file pair.
func newCapture() (*captureFiles, error) {
	stdout, err := newCaptureFile()
	if err != nil {
		return nil, err
	}
	stderr, err := newCaptureFile()
	if err != nil {
		closeCaptureFile(stdout)
		return nil, err
	}
	return &captureFiles{stdout: stdout, stderr: stderr}, nil
}

// read fills in res's output from the pair.
func (c *captureFiles) read(res *Result) error {
	var errOut, errErr error
	res.Stdout, errOut = readBack(c.stdout)
	res.Stderr, errErr = readBack(c.stderr)
	return errors.Join(errOut, errErr)
}

func (c *captureFiles) close() {
	closeCaptureFile(c.stdout)
	closeCaptureFile(c.stderr)
}

// readBack returns what was written to f, nil if nothing.
func readBack(f *os.File) ([]byte, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("core: reading captured output: %w", err)
	}
	if size == 0 {
		return nil, nil
	}
	buf := make([]byte, size)
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("core: reading captured output: %w", err)
	}
	return buf[:n], nil
}

// start resolves argv[0] and starts it with attr. A cached path whose
// binary has gone (moved to another $PATH directory, say) is dropped
// and looked up once more.
func (r *ExecRunner) start(argv []string, attr *os.ProcAttr) (*os.Process, error) {
	path, cached, err := r.lookPath(argv[0])
	if err != nil {
		return nil, err
	}
	p, err := os.StartProcess(path, argv, attr)
	if cached && errors.Is(err, fs.ErrNotExist) {
		r.paths.Delete(argv[0])
		if path, _, err = r.lookPath(argv[0]); err != nil {
			return nil, err
		}
		p, err = os.StartProcess(path, argv, attr)
	}
	return p, err
}

// lookPath resolves a bare command name through $PATH once per runner,
// reporting whether the path came from the cache; a name with a path
// separator is used as given.
func (r *ExecRunner) lookPath(name string) (path string, cached bool, err error) {
	if filepath.Base(name) != name {
		return name, false, nil
	}
	if p, ok := r.paths.Load(name); ok {
		return p.(string), true, nil
	}
	p, err := exec.LookPath(name)
	if err != nil {
		return "", false, err
	}
	r.paths.Store(name, p)
	return p, false, nil
}

// environ returns the environment for a job with the given Env: the
// process's, with PWD set to Dir as os/exec sets it, then the job's
// entries, each replacing any earlier entry of the same name.
func (r *ExecRunner) environ(jobEnv []string) []string {
	r.envOnce.Do(func() {
		env := os.Environ()
		if r.Dir != "" {
			if pwd, err := filepath.Abs(r.Dir); err == nil {
				env = append(env, "PWD="+pwd)
			}
		}
		r.baseEnv = mergeEnv(nil, env)
	})
	if len(jobEnv) == 0 {
		return r.baseEnv
	}
	return mergeEnv(r.baseEnv, jobEnv)
}

// mergeEnv returns a copy of base with extra merged in, last entry of a
// name winning. base must hold no name twice.
func mergeEnv(base, extra []string) []string {
	env := make([]string, len(base), len(base)+len(extra))
	copy(env, base)
	for _, kv := range extra {
		name, _, _ := strings.Cut(kv, "=")
		i := slices.IndexFunc(env, func(e string) bool {
			return len(e) > len(name) && e[len(name)] == '=' && e[:len(name)] == name
		})
		if i >= 0 {
			env[i] = kv
		} else {
			env = append(env, kv)
		}
	}
	return env
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
