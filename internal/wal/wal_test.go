package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// crashPlan mirrors internal/faults.CrashPlan (fire on the k-th crash
// point hit, k drawn from the seed) without importing it: faults
// depends on core, core depends on this package, and an import here
// would close a test-only cycle. The cross-package integration is
// covered by internal/faults' own wal crash test.
type crashPlan struct {
	target uint64
	hits   atomic.Uint64
	fired  atomic.Pointer[string]
}

func newCrashPlan(seed uint64, horizon int) *crashPlan {
	seed += 0x9e3779b97f4a7c15
	seed = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9
	seed = (seed ^ (seed >> 27)) * 0x94d049bb133111eb
	seed ^= seed >> 31
	return &crashPlan{target: seed%uint64(horizon) + 1}
}

func (p *crashPlan) Hit(point string) bool {
	if p.hits.Add(1) != p.target {
		return false
	}
	p.fired.Store(&point)
	return true
}

func (p *crashPlan) Fired() (string, bool) {
	if s := p.fired.Load(); s != nil {
		return *s, true
	}
	return "", false
}

// resumeCheck asserts what a resume's digest check promises for seqs
// 1..n of st, whose input records rec gives: the original records all
// pass, and a record changed at any seq that changed selects is refused
// before a resume would dispatch any job at or after that seq (every
// seq from the changed one up to the refusal completed ok, so a resume
// skips it).
func resumeCheck(st *State, n int, rec func(seq int) []string, changed func(seq int) bool) error {
	v := st.Verifier()
	for seq := 1; seq <= n; seq++ {
		if err := v.Check(seq, rec(seq)); err != nil {
			return fmt.Errorf("original input refused: %v", err)
		}
	}
	ok := st.CompletedOK()
	for bad := 1; bad <= n; bad++ {
		if !changed(bad) {
			continue
		}
		v := st.Verifier()
		refused := 0
		for seq := 1; seq <= n && refused == 0; seq++ {
			r := rec(seq)
			if seq == bad {
				r = append(r, "changed")
			}
			if v.Check(seq, r) != nil {
				refused = seq
			}
		}
		if refused == 0 {
			return fmt.Errorf("input changed at seq %d passed the check", bad)
		}
		for seq := bad; seq < refused; seq++ {
			if !ok[seq] {
				return fmt.Errorf("input changed at seq %d refused only at seq %d, after a resume dispatched seq %d", bad, refused, seq)
			}
		}
	}
	return nil
}

func everySeq(int) bool { return true }

func openT(t *testing.T, dir string, opt Options) (*Log, *State) {
	t.Helper()
	l, st, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, st
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st := openT(t, dir, Options{Sync: SyncNever})
	if len(st.Completed)+len(st.InFlight) != 0 {
		t.Fatalf("fresh log state not empty: %+v", st)
	}
	d1 := ArgsDigest([]string{"a", "b"})
	d2 := ArgsDigest([]string{"c"})
	if err := l.AppendIntent(1, d1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendIntent(2, d2); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCompletion(1, 0, 1500*time.Microsecond, "node7"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Completed[1]; got != 0 {
		t.Fatalf("seq 1 exit = %d, want 0", got)
	}
	if !st2.InFlight[2] {
		t.Fatalf("seq 2 not in flight: %+v", st2)
	}
	if st2.InFlight[1] {
		t.Fatal("completed seq 1 still in flight")
	}
	if st2.Digests[1] != d1 || st2.Digests[2] != d2 {
		t.Fatalf("digests = %v", st2.Digests)
	}
	if st2.Records != 3 || st2.TornTails != 0 {
		t.Fatalf("records=%d torn=%d, want 3/0", st2.Records, st2.TornTails)
	}
	if ok := st2.CompletedOK(); !ok[1] || len(ok) != 1 {
		t.Fatalf("CompletedOK = %v", ok)
	}
}

func TestFailedCompletionNotSkipped(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever})
	l.AppendIntent(1, 1)
	l.AppendCompletion(1, 3, 0, "")
	l.AppendIntent(2, 2)
	l.AppendCompletion(2, -1, 0, "")
	l.Close()
	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.CompletedOK()) != 0 {
		t.Fatalf("failed completions leaked into CompletedOK: %v", st.CompletedOK())
	}
	if st.Completed[1] != 3 || st.Completed[2] != -1 {
		t.Fatalf("Completed = %v", st.Completed)
	}
}

// TestDuplicateIntentsDedup models dist v2 session-retirement
// re-dispatch: the same seq gets multiple intents (and eventually one
// completion); replay must collapse them to exactly-once state.
func TestDuplicateIntentsDedup(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever})
	for i := 0; i < 4; i++ {
		l.AppendIntent(7, 42)
	}
	l.AppendCompletion(7, 0, time.Millisecond, "w1")
	l.AppendIntent(7, 42) // late re-dispatch landing after the completion
	l.Close()
	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CompletedOK()[7] {
		t.Fatal("seq 7 should be completed")
	}
	if st.InFlight[7] {
		t.Fatal("completed seq resurrected into in-flight by a late intent")
	}
}

// TestLastCompletionWins: a resumed run's completion supersedes the
// crashed run's failed one.
func TestLastCompletionWins(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever})
	l.AppendIntent(3, 9)
	l.AppendCompletion(3, 1, 0, "")
	l.Close()
	l2, st := openT(t, dir, Options{Sync: SyncNever})
	if st.Completed[3] != 1 {
		t.Fatalf("replayed exit = %d, want 1", st.Completed[3])
	}
	l2.AppendIntent(3, 9)
	l2.AppendCompletion(3, 0, 0, "")
	l2.Close()
	st2, _ := Replay(dir)
	if st2.Completed[3] != 0 || !st2.CompletedOK()[3] {
		t.Fatalf("final state = %+v", st2)
	}
}

func TestTornTailTruncatedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever})
	for seq := 1; seq <= 10; seq++ {
		l.AppendIntent(seq, uint64(seq))
		l.Sync() // commit boundary: tearing granularity is one commit's batch
		l.AppendCompletion(seq, 0, 0, "")
		l.Sync()
	}
	l.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-record: drop the last 3 bytes, then append
	// garbage that cannot CRC-validate.
	torn := append(append([]byte{}, data[:len(data)-3]...), 0xde, 0xad)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", st.TornTails)
	}
	// Seqs 1..9 fully recorded; seq 10's completion was torn off.
	if len(st.CompletedOK()) != 9 || !st.InFlight[10] {
		t.Fatalf("state after tear = completed %v inflight %v", st.CompletedOK(), st.InFlight)
	}

	// Open repairs the tail and appending resumes cleanly.
	l2, st2 := openT(t, dir, Options{Sync: SyncNever})
	if st2.TornTails != 1 {
		t.Fatalf("open TornTails = %d, want 1", st2.TornTails)
	}
	if err := l2.AppendCompletion(10, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st3.TornTails != 0 {
		t.Fatalf("torn tail survived repair: %d", st3.TornTails)
	}
	if len(st3.CompletedOK()) != 10 {
		t.Fatalf("completed = %v, want all 10", st3.CompletedOK())
	}
}

func TestRotationCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	l, _ := openT(t, dir, Options{Sync: SyncNever, SegmentBytes: 512})
	const n = 200
	for seq := 1; seq <= n; seq++ {
		if err := l.AppendIntent(seq, ArgsDigest([]string{fmt.Sprint(seq)})); err != nil {
			t.Fatal(err)
		}
		exit := 0
		if seq%7 == 0 {
			exit = 1
		}
		if err := l.AppendCompletion(seq, exit, time.Duration(seq)*time.Microsecond, "h"); err != nil {
			t.Fatal(err)
		}
	}
	// Leave a couple in flight.
	l.AppendIntent(n+1, 11)
	l.AppendIntent(n+2, 12)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("compaction left %d segments", len(segs))
	}
	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantOK := 0
	for seq := 1; seq <= n; seq++ {
		want := seq%7 != 0
		if want {
			wantOK++
		}
		if got := st.CompletedOK()[seq]; got != want {
			t.Fatalf("seq %d completedOK = %v, want %v", seq, got, want)
		}
	}
	if err := resumeCheck(st, n, func(seq int) []string { return []string{fmt.Sprint(seq)} }, everySeq); err != nil {
		t.Fatalf("digests across compaction: %v", err)
	}
	if len(st.CompletedOK()) != wantOK {
		t.Fatalf("completedOK size = %d, want %d", len(st.CompletedOK()), wantOK)
	}
	if !st.InFlight[n+1] || !st.InFlight[n+2] || len(st.InFlight) != 2 {
		t.Fatalf("in-flight across compaction = %v", st.InFlight)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{Sync: pol, Interval: time.Millisecond})
			for seq := 1; seq <= 20; seq++ {
				l.AppendIntent(seq, 1)
				l.AppendCompletion(seq, 0, 0, "")
			}
			if pol == SyncInterval {
				time.Sleep(10 * time.Millisecond) // let group commit run at least once
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.CompletedOK()) != 20 {
				t.Fatalf("%v: completed = %d, want 20", pol, len(st.CompletedOK()))
			}
		})
	}
}

func TestFsyncObserver(t *testing.T) {
	dir := t.TempDir()
	var fsyncs int
	l, _ := openT(t, dir, Options{Sync: SyncAlways, FsyncObserver: func(d time.Duration) {
		if d < 0 {
			t.Errorf("negative fsync duration %v", d)
		}
		fsyncs++
	}})
	l.AppendIntent(1, 1)
	l.AppendCompletion(1, 0, 0, "")
	l.Close()
	if fsyncs < 2 {
		t.Fatalf("fsync observer saw %d syncs, want >= 2", fsyncs)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever})
	l.Close()
	if err := l.AppendIntent(1, 1); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestCrashPointSoak sweeps crash-plan-scheduled simulated
// crashes across the WAL's instrumented points (append, sync pre/mid,
// rotation checkpoint/delete) over many seeds, then checks the
// replayed state is always a consistent prefix of what was appended:
// no phantom records, no seq both completed and in flight, durable
// exactly-once accounting for everything that survived — optionally
// with the tail additionally torn mid-record.
func TestCrashPointSoak(t *testing.T) {
	const (
		seeds = 150
		njobs = 120
	)
	for seed := uint64(1); seed <= seeds; seed++ {
		pol := []SyncPolicy{SyncAlways, SyncInterval, SyncNever}[seed%3]
		// Horizon ≈ hits per run: 2 appends per job plus sync points.
		plan := newCrashPlan(seed, njobs*3)
		dir := t.TempDir()
		l, _, err := Open(dir, Options{
			Sync:         pol,
			Interval:     100 * time.Millisecond, // group commits driven by the soak, not the clock
			SegmentBytes: 2048,                   // force rotations into the crash window
			CrashHook:    plan.Hit,
		})
		if err != nil {
			t.Fatal(err)
		}

		// appended tracks ground truth: which records the "process"
		// believes it wrote before dying (calls that returned nil).
		intents := map[int]uint64{}
		completions := map[int]int{}
		crashed := false
		for seq := 1; seq <= njobs && !crashed; seq++ {
			digest := ArgsDigest([]string{fmt.Sprint("input-", seq)})
			if err := l.AppendIntent(seq, digest); err != nil {
				crashed = true
				break
			}
			intents[seq] = digest
			exit := 0
			if seq%11 == 0 {
				exit = 9
			}
			if err := l.AppendCompletion(seq, exit, time.Microsecond, "n"); err != nil {
				crashed = true
				break
			}
			completions[seq] = exit
		}
		closeErr := l.Close()

		if !crashed && closeErr == nil {
			if _, ok := plan.Fired(); ok {
				t.Fatalf("seed %d: plan fired but nothing errored", seed)
			}
		}

		// Half the seeds also tear the last segment mid-record, the
		// torn-write half of a crash. Not under SyncAlways: there the
		// tail is fsynced before acknowledgement, and a torn write can
		// only destroy bytes that never reached the disk barrier.
		if seed%2 == 0 && pol != SyncAlways {
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) > 0 {
				last := segs[len(segs)-1]
				if last.size > int64(headerSize)+4 {
					os.Truncate(last.path, last.size-3)
				}
			}
		}

		st, err := Replay(dir)
		if err != nil {
			t.Fatalf("seed %d: replay error: %v", seed, err)
		}
		for seq := range st.InFlight {
			if _, ok := st.Completed[seq]; ok {
				t.Fatalf("seed %d: seq %d both completed and in flight", seed, seq)
			}
		}
		for seq, exit := range st.Completed {
			want, ok := completions[seq]
			if !ok {
				// The append call returned an error (crash landed inside
				// it) yet the record reached the file — possible when the
				// crash point follows the buffered write. Never invented
				// from nothing: the seq must at least have been attempted.
				if _, tried := intents[seq]; !tried {
					t.Fatalf("seed %d: phantom completion for seq %d", seed, seq)
				}
				continue
			}
			if exit != want {
				t.Fatalf("seed %d: seq %d exit %d, want %d", seed, seq, exit, want)
			}
		}
		for seq, digest := range st.Digests {
			if want, ok := intents[seq]; ok && digest != want {
				t.Fatalf("seed %d: seq %d digest corrupted", seed, seq)
			}
		}
		if pol == SyncAlways && crashed {
			// Everything acknowledged before the crash must be durable:
			// an acknowledged completion may never be lost.
			for seq, exit := range completions {
				got, ok := st.Completed[seq]
				if !ok || got != exit {
					t.Fatalf("seed %d (always): acknowledged completion %d lost (got %v,%v)", seed, seq, got, ok)
				}
			}
			input := func(seq int) []string { return []string{fmt.Sprint("input-", seq)} }
			acked := func(seq int) bool { _, ok := intents[seq]; return ok }
			if err := resumeCheck(st, njobs, input, acked); err != nil {
				t.Fatalf("seed %d (always): acknowledged intent lost: %v", seed, err)
			}
		}

		// The repaired log must keep working: reopen, finish the work,
		// and verify full exactly-once accounting.
		l2, st2, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		for seq := 1; seq <= njobs; seq++ {
			if st2.CompletedOK()[seq] {
				continue // exactly-once: do not re-run
			}
			if err := l2.AppendIntent(seq, ArgsDigest([]string{fmt.Sprint("input-", seq)})); err != nil {
				t.Fatalf("seed %d: resume intent: %v", seed, err)
			}
			if err := l2.AppendCompletion(seq, 0, 0, ""); err != nil {
				t.Fatalf("seed %d: resume completion: %v", seed, err)
			}
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("seed %d: resume close: %v", seed, err)
		}
		final, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 1; seq <= njobs; seq++ {
			if _, ok := final.Completed[seq]; !ok {
				t.Fatalf("seed %d: seq %d lost after resume", seed, seq)
			}
		}
		if final.TornTails != 0 {
			t.Fatalf("seed %d: torn tail survived reopen+resume: %d", seed, final.TornTails)
		}
	}
}
