package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// driveSubmits runs seqs 1..n through a log the way a job service
// does: each seq submitted, every even one completed, every multiple of
// 5 cancelled before any completion, and every multiple of 6 cancelled
// again after completing (a cancel that must not count). It stops at
// the first error and returns how many seqs it drove completely.
func driveSubmits(l *Log, n, syncEvery int) (int, error) {
	for seq := 1; seq <= n; seq++ {
		first, err := l.AppendSubmit([]string{fmt.Sprint("cmd-", seq)})
		if err != nil {
			return seq - 1, err
		}
		if first != seq {
			return seq - 1, fmt.Errorf("AppendSubmit assigned seq %d, want %d", first, seq)
		}
		if seq%5 == 0 {
			if err := l.AppendCancel(seq); err != nil {
				return seq - 1, err
			}
		}
		if seq%2 == 0 {
			if err := l.AppendCompletion(seq, 0, 0, ""); err != nil {
				return seq - 1, err
			}
			if seq%6 == 0 {
				if err := l.AppendCancel(seq); err != nil {
					return seq - 1, err
				}
			}
		}
		if syncEvery > 0 && seq%syncEvery == 0 {
			if err := l.Sync(); err != nil {
				return seq, err
			}
		}
	}
	return n, nil
}

// checkSubmits verifies the state of the first n seqs driveSubmits
// drove.
func checkSubmits(t *testing.T, st *State, n int) {
	t.Helper()
	for seq := 1; seq <= n; seq++ {
		cmd, pending := st.Pending[seq]
		_, done := st.Completed[seq]
		if want := seq%2 == 0; done != want || pending == want {
			t.Fatalf("seq %d: completed %v, pending %v; want completed %v", seq, done, pending, want)
		}
		if pending && cmd != fmt.Sprint("cmd-", seq) {
			t.Fatalf("seq %d: pending command %q", seq, cmd)
		}
		if st.Cancelled[seq] != (seq%5 == 0) {
			t.Fatalf("seq %d: cancelled %v, want %v", seq, st.Cancelled[seq], seq%5 == 0)
		}
	}
	if err := resumeCheck(st, n, func(seq int) []string { return []string{fmt.Sprint("cmd-", seq)} }, everySeq); err != nil {
		t.Fatalf("submit digests: %v", err)
	}
}

// TestSubmitCancelReplay pins the two record types' replay rules: a
// submit keeps its command until the seq completes, and a cancel counts
// only when no completion of the seq precedes it (seq 6: a completion,
// then a cancel; seq 30: cancel, completion, cancel). Under SyncNever
// the completions are staged when the cancels arrive, so the log must
// order them by call, not by write.
func TestSubmitCancelReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Sync: SyncNever})
	if n, err := driveSubmits(l, 30, 0); err != nil {
		t.Fatalf("after %d seqs: %v", n, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkSubmits(t, st, 30)
	if len(st.Pending) != 15 || len(st.Cancelled) != 6 {
		t.Fatalf("replay: %d pending, %d cancelled; want 15, 6", len(st.Pending), len(st.Cancelled))
	}
}

// TestSubmitCancelSurviveRotation: with tiny segments every policy
// rotates several times, and compaction must carry the pending
// commands and the cancels across each rotation; seqs continue densely
// after a reopen.
func TestSubmitCancelSurviveRotation(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{Sync: pol, Interval: time.Hour, SegmentBytes: 512})
			if n, err := driveSubmits(l, 120, 2); err != nil {
				t.Fatalf("after %d seqs: %v", n, err)
			}
			if idx := l.Stats().SegIndex; idx < 4 {
				t.Fatalf("only reached segment %d; the test needs several rotations", idx)
			}
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
			l2, st := openT(t, dir, Options{Sync: SyncNever})
			checkSubmits(t, st, 120)
			if first, err := l2.AppendSubmit([]string{"next"}); err != nil || first != 121 {
				t.Fatalf("submit after reopen = %d, %v; want 121", first, err)
			}
			l2.Close()
		})
	}
}

// TestSubmitCancelSurviveRotationCrash kills the log at each rotation
// crash point (on the second rotation, so a compacted segment already
// exists): everything acked before the crash must replay.
func TestSubmitCancelSurviveRotationCrash(t *testing.T) {
	for _, point := range []string{PointRotateCheckpoint, PointRotateDelete} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			var hits atomic.Int32
			hook := func(p string) bool { return p == point && hits.Add(1) == 2 }
			l, _ := openT(t, dir, Options{Sync: SyncAlways, SegmentBytes: 512, CrashHook: hook})
			n, err := driveSubmits(l, 400, 0)
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("drove %d seqs, err %v; want a crash at %s", n, err, point)
			}
			l.Close()
			st, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			checkSubmits(t, st, n)
		})
	}
}

// TestSubmitAckContract pins what AppendSubmit's return means under each
// policy. Under interval and never the record is in the segment file,
// so it survives a process kill; under always it survives a crash at
// the very next crash point.
func TestSubmitAckContract(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{Sync: pol, Interval: time.Hour})
			defer l.Close()
			if _, err := l.AppendSubmit([]string{"needle one", "needle two"}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, segName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte("needle one")) || !bytes.Contains(data, []byte("needle two")) {
				t.Fatalf("acked submit not in the segment file (%d bytes)", len(data))
			}
		})
	}
	t.Run("always", func(t *testing.T) {
		dir := t.TempDir()
		var armed atomic.Bool
		l, _ := openT(t, dir, Options{Sync: SyncAlways, CrashHook: func(string) bool { return armed.Load() }})
		if _, err := l.AppendSubmit([]string{"survivor"}); err != nil {
			t.Fatal(err)
		}
		armed.Store(true)
		if err := l.AppendCancel(1); !errors.Is(err, ErrCrashed) {
			t.Fatalf("cancel after arming = %v, want ErrCrashed", err)
		}
		l.Close()
		st, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending[1] != "survivor" || st.Cancelled[1] {
			t.Fatalf("after crash: pending %v, cancelled %v", st.Pending, st.Cancelled)
		}
	})
}
