package wal

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// stateMaps is the part of a State a resume reads, in comparable form.
type stateMaps struct {
	Completed map[int]int
	InFlight  map[int]bool
	Digests   map[int]uint64
	Pending   map[int]string
	Cancelled map[int]bool
}

func mapsOf(st *State) stateMaps {
	return stateMaps{st.Completed, st.InFlight, st.Digests, st.Pending, st.Cancelled}
}

// copyFixture copies a committed log directory into a fresh one, so a
// test may append to it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", name)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestReplaysKCheckpointLog replays a log written before the watermark
// checkpoint existed. testdata/k-checkpoint is the one segment left by
// a job service's run at that format: 48 submits of
// "process input-SEQ", an engine intent for 1..44 and a completion for
// 1..40 (7, 14, 21, 28 and 35 exit 3; 9, cancelled while running, too),
// a cancel of the pending 46, and a rotation whose head is the carried
// S and X frames and a K checkpoint. k-checkpoint.state.json is what
// that format's own replay made of it. The log must replay to the same
// state, Open must keep appending to it (rotating into watermark
// checkpoints), and a resume over a changed record must be refused.
func TestReplaysKCheckpointLog(t *testing.T) {
	dir := copyFixture(t, "k-checkpoint")
	data, err := os.ReadFile(filepath.Join("testdata", "k-checkpoint.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want stateMaps
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := mapsOf(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay differs from the writer's own:\n got %+v\nwant %+v", got, want)
	}
	cmd := func(seq int) []string { return []string{fmt.Sprint("process input-", seq)} }
	if err := resumeCheck(st, 48, cmd, everySeq); err != nil {
		t.Fatal(err)
	}

	l, st2 := openT(t, dir, Options{Sync: SyncNever, SegmentBytes: 256})
	if got := mapsOf(st2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Open's state differs from Replay's:\n got %+v\nwant %+v", got, want)
	}
	// Resume the way the service does: re-run what is not terminal, then
	// take new submits.
	for seq := 1; seq <= 48; seq++ {
		if exit, done := st2.Completed[seq]; (done && exit == 0) || st2.Cancelled[seq] {
			continue
		}
		if err := l.AppendIntent(seq, ArgsDigest(cmd(seq))); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendCompletion(seq, 0, time.Millisecond, "n2"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		first, err := l.AppendSubmit([]string{cmd(49 + i)[0]})
		if err != nil || first != 49+i {
			t.Fatalf("submit after reopen = %d, %v; want %d", first, err, 49+i)
		}
		if err := l.AppendCompletion(first, 0, 0, "n2"); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if idx := l.Stats().SegIndex; idx < 4 {
		t.Fatalf("only reached segment %d; the test needs rotations past the K checkpoint", idx)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.watermark == 0 {
		t.Fatal("the reopened log never wrote a watermark checkpoint")
	}
	for seq := 1; seq <= 88; seq++ {
		_, done := final.Completed[seq]
		if want := seq != 46; done != want {
			t.Fatalf("seq %d: completed %v, want %v", seq, done, want)
		}
	}
	if !final.Cancelled[9] || !final.Cancelled[46] || len(final.Cancelled) != 2 {
		t.Fatalf("cancels after reopen: %v", final.Cancelled)
	}
	if final.Pending[46] != cmd(46)[0] || len(final.Pending) != 1 || !final.InFlight[46] || len(final.InFlight) != 1 {
		t.Fatalf("pending after reopen: %v, in flight %v", final.Pending, final.InFlight)
	}
	if err := resumeCheck(final, 88, cmd, everySeq); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitThenIntentReplaysAsSubmit: a job service's engine logs an
// intent for each submitted seq with the digest the submit already
// implies. A log with both records and a log with only the submit
// replay identically, and the log does not write the second.
func TestSubmitThenIntentReplaysAsSubmit(t *testing.T) {
	const n = 12
	cmd := func(seq int) string { return fmt.Sprint("cmd-", seq) }

	// Replay: hand-made segments, one with S then I, one with only S.
	both, onlyS := t.TempDir(), t.TempDir()
	frames := func(withIntent bool) []byte {
		b := []byte(segMagic + "\x01\x00\x00\x00")
		for seq := 1; seq <= n; seq++ {
			b = appendFrame(b, appendSubmitPayload(nil, seq, cmd(seq)))
			if withIntent {
				b = appendFrame(b, appendIntentPayload(nil, seq, ArgsDigest([]string{cmd(seq)})))
			}
			if seq%3 == 0 {
				b = appendFrame(b, appendCompletionPayload(nil, seq, seq%2, 0, ""))
			}
		}
		return b
	}
	for dir, withIntent := range map[string]bool{both: true, onlyS: false} {
		if err := os.WriteFile(filepath.Join(dir, segName(1)), frames(withIntent), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stBoth, err := Replay(both)
	if err != nil {
		t.Fatal(err)
	}
	stS, err := Replay(onlyS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mapsOf(stBoth), mapsOf(stS)) {
		t.Fatalf("S+I replays to %+v, S alone to %+v", mapsOf(stBoth), mapsOf(stS))
	}

	// Writing: the engine's intent behind a submit costs no bytes, staged
	// or inline.
	for _, pol := range []SyncPolicy{SyncNever, SyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			sizes := map[bool]int64{}
			for _, withIntent := range []bool{true, false} {
				dir := t.TempDir()
				l, _ := openT(t, dir, Options{Sync: pol})
				for seq := 1; seq <= n; seq++ {
					if _, err := l.AppendSubmit([]string{cmd(seq)}); err != nil {
						t.Fatal(err)
					}
					if withIntent {
						if err := l.AppendIntent(seq, ArgsDigest([]string{cmd(seq)})); err != nil {
							t.Fatal(err)
						}
					}
					if err := l.AppendCompletion(seq, 0, 0, ""); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				sizes[withIntent] = l.Stats().SegBytes
				st, err := Replay(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(st.CompletedOK()) != n {
					t.Fatalf("completed %d of %d", len(st.CompletedOK()), n)
				}
			}
			if sizes[true] != sizes[false] {
				t.Fatalf("segment with the engine's intents is %d bytes, without %d", sizes[true], sizes[false])
			}
		})
	}
}

// engineStream drives n synthetic jobs shaped like the engine's log
// into visit: intents in seq order, completions up to 64 seqs out of
// order, one job in a thousand failing, and a drain (the flusher's
// tick) every 1024 jobs.
func engineStream(n int, intent func(seq int), completion func(seq, exit int), drain func()) (failures int) {
	const lag = 64
	for seq := 1; seq <= n+lag; seq++ {
		if seq <= n {
			intent(seq)
		}
		// Complete the seq lag behind, permuted within each block of 8.
		if c := seq - lag; c >= 1 {
			done := c&^7 + 7 - c&7
			if done > n || done < 1 {
				done = c
			}
			exit := 0
			if done%1000 == 0 {
				exit = 1
				failures++
			}
			completion(done, exit)
		}
		if seq%1024 == 0 {
			drain()
		}
	}
	drain()
	return failures
}

func streamDigest(seq int) uint64 { return ArgsDigest([]string{"in", strconv.Itoa(seq)}) }

// TestTrackerMemoryFlat: the tracker's footprint and its checkpoint do
// not grow with the number of jobs, only with the failures.
func TestTrackerMemoryFlat(t *testing.T) {
	winCap := map[int]int{}
	for _, n := range []int{250_000, 1_000_000} {
		tr := newTracker(newState())
		failures := engineStream(n,
			func(seq int) { tr.intent(seq, streamDigest(seq)) },
			func(seq, exit int) { tr.completion(seq, exit) },
			tr.advance)
		if tr.w != n+1 || tr.win.Len() != 0 {
			t.Fatalf("n=%d: watermark %d with %d seqs in the window, want %d and 0", n, tr.w, tr.win.Len(), n+1)
		}
		if len(tr.exc) != failures || len(tr.folds) < failures || len(tr.folds) > failures+1 {
			t.Fatalf("n=%d: %d exceptions and %d folds for %d failures", n, len(tr.exc), len(tr.folds), failures)
		}
		winCap[n] = tr.win.Cap()
		if foot := 16*tr.win.Cap() + 24*(cap(tr.exc)+cap(tr.folds)); foot > 64<<10+2*64*failures {
			t.Fatalf("n=%d: tracker holds %d bytes for %d failures", n, foot, failures)
		}
		if ck := len(tr.appendCheckpointPayload(nil)); ck > 64<<10+32*failures {
			t.Fatalf("n=%d: checkpoint is %d bytes for %d failures", n, ck, failures)
		}
	}
	if winCap[1_000_000] != winCap[250_000] {
		t.Fatalf("window capacity grew with the job count: %v", winCap)
	}
}

// TestLogKeepsRotating: with 1 MiB segments a million-job log keeps
// rotating, its directory never holds more than two segments, and each
// checkpoint stays within 64 KiB plus 32 bytes a failure.
func TestLogKeepsRotating(t *testing.T) {
	if testing.Short() {
		t.Skip("a million-job log")
	}
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever, SegmentBytes: 1 << 20})
	maxSegs := 0
	var appendErr error
	keep := func(err error) {
		if err != nil && appendErr == nil {
			appendErr = err
		}
	}
	const n = 1_000_000
	failures := engineStream(n,
		func(seq int) { keep(l.AppendIntent(seq, streamDigest(seq))) },
		func(seq, exit int) { keep(l.AppendCompletion(seq, exit, time.Microsecond, "h")) },
		func() {
			keep(l.drainStaged()) // the flusher's tick, without its fsync
			segs, err := listSegments(dir)
			keep(err)
			maxSegs = max(maxSegs, len(segs))
		})
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if idx := l.Stats().SegIndex; idx < 10 {
		t.Fatalf("a %d-job log reached only segment %d", n, idx)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if maxSegs > 2 {
		t.Fatalf("the directory held %d segments", maxSegs)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[len(segs)-1].path)
	if err != nil {
		t.Fatal(err)
	}
	if data[headerSize+frameSize] != recWatermark {
		t.Fatalf("last segment opens with record %q, want a watermark checkpoint", data[headerSize+frameSize])
	}
	if ck := int(data[headerSize]) | int(data[headerSize+1])<<8 | int(data[headerSize+2])<<16; ck > 64<<10+32*failures {
		t.Fatalf("checkpoint is %d bytes for %d failures", ck, failures)
	}
	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Completed) != n || len(st.CompletedOK()) != n-failures || len(st.InFlight) != 0 {
		t.Fatalf("replay: %d completed, %d ok, %d in flight; want %d, %d, 0",
			len(st.Completed), len(st.CompletedOK()), len(st.InFlight), n, n-failures)
	}
}

// TestTrackerFoldAllocsNothing: in steady state, logging a job's intent
// and completion and moving the watermark past it allocates nothing.
func TestTrackerFoldAllocsNothing(t *testing.T) {
	tr := newTracker(newState())
	seq := 0
	job := func() {
		seq++
		tr.intent(seq, uint64(seq)*0x9e3779b97f4a7c15|1)
		tr.completion(seq, 0)
		tr.advance()
	}
	for i := 0; i < 1000; i++ {
		job()
	}
	if allocs := testing.AllocsPerRun(10_000, job); allocs != 0 {
		t.Fatalf("%v allocations per job", allocs)
	}
}

// TestWatermarkWaitsForIntent: a completion the flusher wrote before
// its intent keeps the watermark below the seq until the intent comes,
// and a job service's cancelled seq that never completes does not hold
// it back.
func TestWatermarkWaitsForIntent(t *testing.T) {
	tr := newTracker(newState())
	tr.intent(1, 11)
	tr.completion(1, 0)
	tr.completion(2, 0) // intent not yet written
	tr.advance()
	if tr.w != 2 {
		t.Fatalf("watermark %d, want 2 (seq 2 has no intent yet)", tr.w)
	}
	tr.intent(2, 22)
	tr.advance()
	if tr.w != 3 {
		t.Fatalf("watermark %d after the intent, want 3", tr.w)
	}
	tr.submit(3, "sleep 9")
	tr.cancel(3)
	tr.submit(4, "true")
	tr.completion(4, 0)
	tr.advance()
	if tr.w != 5 || len(tr.exc) != 1 || tr.exc[0].seq != 3 {
		t.Fatalf("watermark %d, exceptions %+v; want 5 and the cancelled seq 3", tr.w, tr.exc)
	}
	if tr.cmds[3] != "sleep 9" || len(tr.cmds) != 1 {
		t.Fatalf("pending commands %v", tr.cmds)
	}
}

// TestFarAheadSeqStaysSparse: a seq far past the window goes to the
// overflow without allocating the gap, survives rotation, and moves into
// the window once the watermark comes within reach.
func TestFarAheadSeqStaysSparse(t *testing.T) {
	tr := newTracker(newState())
	far := 1 << 30
	tr.intent(far, 7)
	tr.intent(1, 1)
	if tr.win.Cap() > 1024 || len(tr.over) != 1 {
		t.Fatalf("window capacity %d, overflow %d after a far-ahead intent", tr.win.Cap(), len(tr.over))
	}
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever, SegmentBytes: 64})
	l.AppendIntent(far, 7)
	for seq := 1; seq <= 50; seq++ {
		l.AppendIntent(seq, streamDigest(seq))
		l.AppendCompletion(seq, 0, 0, "")
		l.Sync()
	}
	l.AppendCompletion(far, 2, 0, "")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.watermark != 51 || st.Completed[far] != 2 || st.Digests[far] != 7 || len(st.CompletedOK()) != 50 {
		t.Fatalf("watermark %d, far seq exit %d digest %d, %d ok", st.watermark, st.Completed[far], st.Digests[far], len(st.CompletedOK()))
	}

	// Once the watermark is within reach, the overflow entry joins the
	// window and the watermark passes it.
	tr = newTracker(newState())
	tr.intent(trackSpan+5, 9)
	tr.completion(trackSpan+5, 0)
	if len(tr.over) != 1 || tr.win.Len() != 0 {
		t.Fatalf("overflow %d, window %d", len(tr.over), tr.win.Len())
	}
	tr.w = trackSpan // as if seqs 1 .. trackSpan-1 had all finished
	tr.intent(trackSpan+6, 10)
	if len(tr.over) != 0 || tr.win.Len() != 7 {
		t.Fatalf("overflow %d, window %d after the window reached the far seq", len(tr.over), tr.win.Len())
	}
	if s := tr.win.At(5); s.flags != fStarted|fDigest|fDone || s.digest != 9 {
		t.Fatalf("migrated entry %+v", *s)
	}
}

// TestVerifierNamesRun: a change inside a folded run is refused at the
// run's last seq, naming the range; a seq with a single digest at the
// seq itself.
func TestVerifierNamesRun(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever, SegmentBytes: 128})
	rec := func(seq int) []string { return []string{"in", strconv.Itoa(seq)} }
	for seq := 1; seq <= 40; seq++ {
		l.AppendIntent(seq, ArgsDigest(rec(seq)))
		exit := 0
		if seq == 20 {
			exit = 1
		}
		l.AppendCompletion(seq, exit, 0, "")
		l.Sync()
	}
	l.AppendIntent(41, ArgsDigest(rec(41)))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.folds) != 2 || st.folds[0].lo != 1 || st.folds[0].hi != 19 {
		t.Fatalf("folds %+v, want 1-19 and 21-…", st.folds)
	}
	run := func(bad int) error {
		v := st.Verifier()
		for seq := 1; seq <= 41; seq++ {
			r := rec(seq)
			if seq == bad {
				r = []string{"other"}
			}
			if err := v.Check(seq, r); err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(0); err != nil {
		t.Fatal(err)
	}
	if err := run(5); err == nil || err.Error()[:10] != "seqs 1-19:" {
		t.Fatalf("change at 5: %v", err)
	}
	if err := run(20); err == nil || err.Error()[:7] != "seq 20:" {
		t.Fatalf("change at 20: %v", err)
	}
	if err := run(41); err == nil || err.Error()[:7] != "seq 41:" {
		t.Fatalf("change at 41: %v", err)
	}
}

// FuzzTrackerCheckpoint drives random streams shaped like engine and
// job-service logs — out-of-order completions, completions logged
// before their intents, re-run completions, cancels, failures — through
// a Log with tiny segments, and through a log that never rotates.
// Replaying the rotated one must give the same Completed, InFlight,
// Pending and Cancelled, the same Digests from the watermark up and at
// every exception, and folds that hash the never-rotated log's digests.
func FuzzTrackerCheckpoint(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 2, 0, 5, 0, 3, 1, 17, 5})
	f.Add([]byte{1, 4, 4, 4, 0, 0, 1, 33, 2, 1, 5, 3, 0, 0, 0, 1, 2, 5})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 5, 3, 9, 1, 0, 5, 0, 0, 1, 7})
	f.Add([]byte{3, 4, 4, 0, 0, 3, 1, 1, 2, 4, 0, 1, 5, 2, 0, 5, 3, 1})
	// Longer streams, so that even without fuzzing the target sees many
	// rotations, folds and exceptions in each mode.
	x := uint32(1)
	for mode := byte(0); mode < 8; mode++ {
		ops := []byte{mode}
		for i := 0; i < 600; i++ {
			x = x*1664525 + 1013904223
			ops = append(ops, byte(x>>24))
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 4096 {
			return
		}
		service := ops[0]&1 != 0 // job service (submits, cancels) or engine stream
		opt := Options{Sync: SyncNever, SegmentBytes: 48}
		if ops[0]&2 != 0 {
			opt.CrashHook = func(string) bool { return false } // write inline instead of staging
		}
		ops = ops[1:]
		rotDir, refDir := t.TempDir(), t.TempDir()
		rot, _ := openT(t, rotDir, opt)
		refOpt := opt
		refOpt.SegmentBytes = 1 << 40
		ref, _ := openT(t, refDir, refOpt)
		logs := []*Log{rot, ref}

		cmd := func(seq int) string { return "job " + strconv.Itoa(seq) }
		digest := func(seq int) uint64 {
			if service {
				return ArgsDigest([]string{cmd(seq)})
			}
			return streamDigest(seq)
		}
		next := 1               // next seq to dispatch (log an intent for)
		submitted := 0          // service: highest submitted seq
		var running []int       // dispatched, not yet completed
		var failed []int        // completed with a failure: candidates for a re-run
		early := map[int]bool{} // completed before their intent
		each := func(do func(l *Log) error) {
			for _, l := range logs {
				if err := do(l); err != nil {
					t.Fatal(err)
				}
			}
		}
		pick := func(list []int, b byte) ([]int, int) {
			i := int(b) % len(list)
			seq := list[i]
			return append(list[:i], list[i+1:]...), seq
		}
		for i := 0; i < len(ops); i++ {
			arg := byte(0)
			if i+1 < len(ops) {
				arg = ops[i+1]
			}
			switch ops[i] % 6 {
			case 0: // dispatch the next seq
				if service && next > submitted {
					continue
				}
				seq := next
				next++
				each(func(l *Log) error { return l.AppendIntent(seq, digest(seq)) })
				if early[seq] {
					delete(early, seq)
				} else {
					running = append(running, seq)
				}
			case 1: // complete a running seq, out of order
				if len(running) == 0 {
					continue
				}
				var seq int
				running, seq = pick(running, arg)
				i++
				exit := 0
				if arg%5 == 0 {
					exit = 1 + int(arg%3)
					failed = append(failed, seq)
				}
				each(func(l *Log) error { return l.AppendCompletion(seq, exit, 0, "") })
			case 2: // complete the next seq before its intent is logged
				if service || early[next] {
					continue
				}
				seq := next
				early[seq] = true
				each(func(l *Log) error { return l.AppendCompletion(seq, 0, 0, "") })
				each(func(l *Log) error { return l.Sync() })
			case 3: // re-run a failed seq, as a resume does
				if len(failed) == 0 {
					continue
				}
				var seq int
				failed, seq = pick(failed, arg)
				i++
				exit := 0
				if arg%3 == 0 {
					exit = 9
					failed = append(failed, seq)
				}
				each(func(l *Log) error { return l.AppendIntent(seq, digest(seq)) })
				each(func(l *Log) error { return l.AppendCompletion(seq, exit, 0, "") })
			case 4: // service: submit, or cancel a submitted seq
				if !service {
					continue
				}
				if arg%4 != 0 || submitted == 0 {
					n := 1 + int(arg%3)
					cmds := make([]string, n)
					for j := range cmds {
						cmds[j] = cmd(submitted + 1 + j)
					}
					each(func(l *Log) error {
						first, err := l.AppendSubmit(cmds)
						if err == nil && first != submitted+1 {
							err = fmt.Errorf("submit assigned seq %d, want %d", first, submitted+1)
						}
						return err
					})
					submitted += n
				} else {
					seq := 1 + int(arg/4)%submitted
					each(func(l *Log) error { return l.AppendCancel(seq) })
				}
				i++
			case 5: // a flusher tick
				each(func(l *Log) error { return l.Sync() })
			}
		}
		each(func(l *Log) error { return l.Close() })

		got, err := Replay(rotDir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Replay(refDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"Completed", got.Completed, want.Completed},
			{"InFlight", got.InFlight, want.InFlight},
			{"Pending", got.Pending, want.Pending},
			{"Cancelled", got.Cancelled, want.Cancelled},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: rotated %v, never rotated %v", c.name, c.got, c.want)
			}
		}
		inFold := (&tracker{folds: got.folds}).inFold
		for seq, d := range got.Digests {
			if w, ok := want.Digests[seq]; !ok || w != d {
				t.Fatalf("seq %d: rotated digest %x, never rotated %x (present %v)", seq, d, w, ok)
			}
		}
		for seq, d := range want.Digests {
			if _, ok := got.Digests[seq]; !ok && (seq >= got.watermark || !inFold(seq)) {
				t.Fatalf("seq %d: digest %x lost in rotation (watermark %d)", seq, d, got.watermark)
			}
		}
		for _, fd := range got.folds {
			h := uint64(foldSeed)
			for seq := fd.lo; seq <= fd.hi; seq++ {
				h = foldStep(h, want.Digests[seq])
			}
			if h != fd.h {
				t.Fatalf("fold %d-%d hashes %x, the never-rotated digests %x", fd.lo, fd.hi, fd.h, h)
			}
		}

		// The rotated log reopens to the same state and keeps appending.
		l, st, err := Open(rotDir, Options{Sync: SyncNever, SegmentBytes: 48})
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(st.Completed, got.Completed) || !maps.Equal(st.InFlight, got.InFlight) {
			t.Fatal("Open's state differs from Replay's")
		}
		const probe = 1 << 30 // far past anything the stream logged
		if err := l.AppendIntent(probe, 5); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendCompletion(probe, 0, 0, ""); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Replay(rotDir)
		if err != nil {
			t.Fatal(err)
		}
		if again.Completed[probe] != 0 || len(again.Completed) != len(got.Completed)+1 {
			t.Fatalf("after reopen: %d completed, want %d", len(again.Completed), len(got.Completed)+1)
		}
	})
}

// BenchmarkNewTracker times rebuilding the tracker from a finished
// 100k-job run's replayed state, the share of Open a job service's
// restart pays for it.
func BenchmarkNewTracker(b *testing.B) {
	st := newState()
	for seq := 1; seq <= 100_000; seq++ {
		st.Completed[seq] = 0
		st.Digests[seq] = streamDigest(seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newTracker(st)
	}
}
