package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/tmpl"
	"repro/internal/wal"
)

// HaltWhen selects how aggressively a triggered halt policy stops the run.
type HaltWhen int

const (
	// HaltNever runs every job regardless of failures (default).
	HaltNever HaltWhen = iota
	// HaltSoon stops launching new jobs but lets running jobs finish.
	HaltSoon
	// HaltNow additionally cancels running jobs.
	HaltNow
)

// HaltPolicy mirrors GNU Parallel's --halt: stop the run once Threshold
// jobs (or Percent of all jobs) have failed (OnSuccess=false) or
// succeeded (OnSuccess=true).
type HaltPolicy struct {
	When      HaltWhen
	Threshold int // number of triggering jobs; <=0 means 1
	// Percent, when > 0, triggers once the triggering outcomes reach
	// this percentage of all jobs (GNU --halt now,fail=10%). It takes
	// precedence over Threshold and — like GNU Parallel, which needs
	// the job total — is only evaluated once the input source has been
	// fully read. To learn that total the engine spools the entire
	// input into memory before dispatching (a single flat arena, one
	// string per record field): memory is O(total input size), so
	// percent halts are unsuitable for unbounded/streaming sources —
	// use Threshold there, which dispatches as input arrives.
	Percent   float64
	OnSuccess bool // trigger on successes instead of failures
}

// Triggered reports whether the policy fires given current counts. total
// is the number of jobs read from the input so far; totalFinal reports
// whether the input source is exhausted (total is the true job count).
func (h HaltPolicy) Triggered(succeeded, failed, total int, totalFinal bool) bool {
	if h.When == HaltNever {
		return false
	}
	n := failed
	if h.OnSuccess {
		n = succeeded
	}
	if h.Percent > 0 {
		if !totalFinal || total == 0 {
			return false
		}
		return float64(n)/float64(total)*100 >= h.Percent
	}
	th := h.Threshold
	if th <= 0 {
		th = 1
	}
	return n >= th
}

// Backoff configures exponential backoff between retry attempts of one
// job (GNU Parallel retries immediately; at extreme scale an immediate
// retry against a sick node or service usually fails the same way).
type Backoff struct {
	// Base is the pause before the first retry; 0 disables backoff
	// (retries stay immediate).
	Base time.Duration
	// Cap bounds the grown delay; 0 means uncapped.
	Cap time.Duration
	// Factor multiplies the delay after each failed attempt; values
	// < 1 (including 0) mean the default of 2.
	Factor float64
	// Jitter spreads each delay uniformly over [d*(1-Jitter),
	// d*(1+Jitter)] to avoid retry stampedes. Must be in [0, 1]. The
	// jitter draw is a pure function of (seq, attempt), so a run's
	// retry timing is reproducible.
	Jitter float64
}

// Delay returns the pause before the retry that follows failed attempt
// number `attempt` (1-based) of job seq.
func (b Backoff) Delay(seq, attempt int) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	factor := b.Factor
	if factor < 1 {
		factor = 2
	}
	d := float64(b.Base)
	for i := 1; i < attempt; i++ {
		d *= factor
		if b.Cap > 0 && d >= float64(b.Cap) {
			break
		}
	}
	if b.Cap > 0 && d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if b.Jitter > 0 {
		u := unitFloat(uint64(seq)<<20 ^ uint64(attempt))
		d *= 1 - b.Jitter + 2*b.Jitter*u
	}
	return time.Duration(d)
}

// unitFloat maps x to [0, 1) via the splitmix64 finalizer, giving a
// deterministic per-key uniform draw with no shared RNG state.
func unitFloat(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Spec configures an engine run. The zero value is not usable: Jobs and
// either Template or a FuncRunner must be set; use NewSpec for defaults.
type Spec struct {
	// Jobs is the number of parallel slots (GNU Parallel -j).
	Jobs int
	// Template is the command template; nil for Func-only workloads
	// whose Runner ignores Job.Command.
	Template *tmpl.Template
	// AppendArgsIfNoPlaceholder mirrors GNU Parallel: when the template
	// has no input placeholder, " {}" is appended. Default true via
	// NewSpec.
	AppendArgsIfNoPlaceholder bool
	// KeepOrder releases output and OnResult callbacks in input order
	// (GNU Parallel -k).
	KeepOrder bool
	// Pipe switches to GNU Parallel's --pipe model: each input record's
	// first column becomes the job's standard input rather than
	// command-line arguments (pair with args.Blocks to split a stream
	// into line-aligned blocks). No " {}" is appended to the template.
	Pipe bool
	// Retries is the maximum total attempts per job (GNU --retries);
	// values < 1 mean 1.
	Retries int
	// RetryBackoff paces retry attempts (zero value = immediate retry,
	// GNU Parallel's behavior). The backoff sleep holds the job's slot,
	// like a still-running job would.
	RetryBackoff Backoff
	// RetryOn, when non-nil, decides whether a failed attempt is
	// retried: return false to fail the job immediately (e.g. retry
	// transport errors but not nonzero exits). Nil retries every
	// failure, up to Retries attempts.
	RetryOn func(Result) bool
	// Timeout kills a job attempt after this duration; 0 disables.
	Timeout time.Duration
	// Delay inserts a pause between consecutive job starts (GNU
	// --delay), useful for staggering load on shared services.
	Delay time.Duration
	// MaxLoad pauses dispatch while the system 1-minute load average is
	// at or above this value (GNU --load); 0 disables. Ignored on
	// systems without /proc/loadavg.
	MaxLoad float64
	// Halt configures early termination.
	Halt HaltPolicy
	// DryRun renders commands without executing them; each job yields a
	// Result with DryRun=true and the command written to Out.
	DryRun bool
	// Tag prefixes every output line with the job's first argument and
	// a TAB (GNU --tag).
	Tag bool
	// Out and Errout receive grouped job stdout/stderr. Nil discards.
	Out, Errout io.Writer
	// Joblog, when non-nil, receives one GNU-Parallel-format log line
	// per completed job.
	Joblog io.Writer
	// ResumeFrom contains seq numbers to skip (previously completed),
	// typically from ReadJoblog.
	ResumeFrom map[int]bool
	// WAL, when non-nil, makes the run crash-safe: an intent record is
	// appended (durably, per the log's sync policy) before each job is
	// handed to the dispatch pipeline, and a completion record as each
	// result is collected. A later run resumes exactly-once from the
	// replayed log (wal.State.CompletedOK → ResumeFrom). The engine
	// appends one intent per seq regardless of retries or dist-layer
	// re-dispatch, and the log itself deduplicates replayed intents, so
	// session retirement on a remote worker cannot double-count a job.
	// An append failure aborts the run: a log that can no longer record
	// is a broken durability promise, not a warning.
	WAL *wal.Log
	// WALVerifier checks input against a previous run's log
	// (wal.State.Verifier). When non-nil, the input goroutine passes it
	// each record it reads, in seq order, and fails the run on a
	// mismatch: resuming against an input file that changed out from
	// under the log silently runs the wrong work, which at scale is
	// worse than stopping. A changed record is refused before any job at
	// or after its seq is dispatched; one inside a run of jobs the log
	// folded is named by the run's seq range.
	WALVerifier *wal.Verifier
	// OnResult, when non-nil, is called for each finished job (ordered
	// if KeepOrder). It runs on the collector goroutine: keep it fast.
	OnResult func(Result)
	// OnProgress, when non-nil, receives a snapshot after every job
	// completion (unordered — progress is about throughput, not output
	// order). It runs on the collector goroutine: keep it fast.
	OnProgress func(Progress)
	// OnEvent, when non-nil, receives job-lifecycle events
	// (queued/started/retried/finished/killed) as the run progresses —
	// the hook internal/telemetry's Bus plugs into. It is called from
	// multiple engine goroutines concurrently and sits on the dispatch
	// hot path: it must be concurrency-safe and must never block
	// (publish to a bounded buffer and drop, don't wait).
	OnEvent func(Event)
	// CollectResults retains all results in the slice returned by Run.
	// Off by default: million-task runs should not buffer everything.
	CollectResults bool
	// ResultsDir, when non-empty, saves each job's output under
	// <dir>/<seq>/{stdout,stderr,exitval} (GNU Parallel's --results,
	// simplified layout). Write failures surface through Stats via the
	// collector's error return.
	ResultsDir string
	// Env holds extra KEY=VALUE pairs applied to every job.
	Env []string
	// SlotEnv, when non-nil, is called with each job's slot number and
	// returns additional env entries — the "GPU isolation" hook
	// (HIP_VISIBLE_DEVICES from {%}).
	SlotEnv func(slot int) []string
}

// NewSpec returns a Spec with GNU-Parallel-like defaults: command cmd,
// jobs slots, append-{} behavior on.
func NewSpec(cmd string, jobs int) (*Spec, error) {
	t, err := tmpl.Parse(cmd)
	if err != nil {
		return nil, err
	}
	return &Spec{
		Jobs:                      jobs,
		Template:                  t,
		AppendArgsIfNoPlaceholder: true,
		Retries:                   1,
	}, nil
}

// validate rejects malformed knob combinations up front, so a bad Spec
// fails NewEngine with a descriptive error instead of being silently
// clamped (or worse, misbehaving 9,000 nodes into a run).
func (s *Spec) validate() error {
	if s.Jobs < 1 {
		return fmt.Errorf("core: Jobs must be >= 1, got %d", s.Jobs)
	}
	if s.Retries < 0 {
		return fmt.Errorf("core: Retries must be >= 0, got %d", s.Retries)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("core: Timeout must be >= 0, got %v", s.Timeout)
	}
	if s.Delay < 0 {
		return fmt.Errorf("core: Delay must be >= 0, got %v", s.Delay)
	}
	if s.MaxLoad < 0 {
		return fmt.Errorf("core: MaxLoad must be >= 0, got %v", s.MaxLoad)
	}
	b := s.RetryBackoff
	if b.Base < 0 {
		return fmt.Errorf("core: RetryBackoff.Base must be >= 0, got %v", b.Base)
	}
	if b.Cap < 0 {
		return fmt.Errorf("core: RetryBackoff.Cap must be >= 0, got %v", b.Cap)
	}
	if b.Cap > 0 && b.Cap < b.Base {
		return fmt.Errorf("core: RetryBackoff.Cap %v is below Base %v", b.Cap, b.Base)
	}
	if b.Factor != 0 && b.Factor < 1 {
		return fmt.Errorf("core: RetryBackoff.Factor must be >= 1 (or 0 for the default), got %v", b.Factor)
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		return fmt.Errorf("core: RetryBackoff.Jitter must be in [0, 1], got %v", b.Jitter)
	}
	if s.Halt.Percent < 0 || s.Halt.Percent > 100 {
		return fmt.Errorf("core: Halt.Percent must be in [0, 100], got %v", s.Halt.Percent)
	}
	if s.Halt.Threshold < 0 {
		return fmt.Errorf("core: Halt.Threshold must be >= 0, got %d", s.Halt.Threshold)
	}
	return nil
}

// effectiveTemplate returns the template with " {}" appended when needed.
func (s *Spec) effectiveTemplate() *tmpl.Template {
	t := s.Template
	if t == nil {
		return nil
	}
	if s.AppendArgsIfNoPlaceholder && !s.Pipe && !t.HasInputPlaceholder() && t.Source() != "" {
		return tmpl.MustParse(t.Source() + " {}")
	}
	return t
}
