package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// validSegment builds a well-formed segment byte stream for the fuzz
// seed corpus.
func validSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	l.AppendSubmit([]string{"echo 1", "echo 2", "echo 3", "echo 4", "echo 5", "echo 6"})
	l.AppendCancel(2)
	for seq := 1; seq <= 5; seq++ {
		l.AppendIntent(seq, ArgsDigest([]string{"in", "put"}))
		l.AppendCompletion(seq, seq%2, 3*time.Millisecond, "worker-9")
	}
	l.AppendCancel(3) // after its completion: must not count
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// rotatedSegment returns the newest segment of a log that rotated,
// which opens with carried submits and a watermark checkpoint holding
// folds, exceptions (a failure, a cancel) and window entries.
func rotatedSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 200})
	if err != nil {
		tb.Fatal(err)
	}
	l.AppendSubmit([]string{"echo 1", "echo 2", "echo 3", "echo 4", "echo 5", "echo 6", "echo 7", "echo 8"})
	l.AppendCancel(6)
	for seq := 1; seq <= 7; seq++ {
		l.AppendIntent(seq, ArgsDigest([]string{fmt.Sprint("echo ", seq)}))
		l.AppendCompletion(seq, seq/4%2, time.Millisecond, "worker-9")
		l.Sync()
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 || segs[len(segs)-1].index == 1 {
		tb.Fatalf("log did not rotate: %v, %v", segs, err)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(segs[len(segs)-1].path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzReplaySegment throws arbitrary bytes at the segment replayer:
// whatever the corruption — truncation, bit flips, hostile lengths,
// CRC-valid-but-bogus payloads — Replay must neither panic nor error,
// must produce internally consistent state, and Open must then repair
// the directory so appends and a clean re-replay succeed.
func FuzzReplaySegment(f *testing.F) {
	seg := validSegment(f)
	f.Add(seg)
	f.Add(rotatedSegment(f))
	f.Add(seg[:len(seg)-3])                   // torn tail
	f.Add(seg[:headerSize])                   // header only
	f.Add([]byte{})                           // empty file
	f.Add([]byte("GOPARWAL\x01\x00\x00\x00")) // bare header
	f.Add([]byte("NOTAWAL!"))                 // bad magic
	flipped := append([]byte{}, seg...)
	if len(flipped) > headerSize+10 {
		flipped[headerSize+9] ^= 0x40 // corrupt a payload byte under its CRC
	}
	f.Add(flipped)
	// Hostile length field: huge payload length with matching offset.
	hostile := append([]byte{}, seg[:headerSize]...)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0xffffffff)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0)
	f.Add(hostile)
	// CRC-valid submit whose command length overruns its payload, and a
	// CRC-valid cancel of seq 0.
	lying := append(appendUvarint([]byte{recSubmit, 1}, 1000), "abc"...)
	f.Add(appendFrame(append([]byte{}, seg[:headerSize]...), lying))
	f.Add(appendFrame(append([]byte{}, seg[:headerSize]...), []byte{recCancel, 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Replay(dir)
		if err != nil {
			t.Fatalf("replay errored on corrupt input: %v", err)
		}
		for seq := range st.InFlight {
			if _, ok := st.Completed[seq]; ok {
				t.Fatalf("seq %d both completed and in flight", seq)
			}
		}
		for seq := range st.CompletedOK() {
			if st.Completed[seq] != 0 {
				t.Fatalf("CompletedOK leaked non-zero exit for %d", seq)
			}
		}

		// Open must repair whatever Replay tolerated, and the repaired
		// log must accept appends that survive a clean round trip.
		l, st2, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("open on corrupt dir: %v", err)
		}
		if len(st2.Completed) != len(st.Completed) || len(st2.InFlight) != len(st.InFlight) ||
			len(st2.Pending) != len(st.Pending) || len(st2.Cancelled) != len(st.Cancelled) {
			t.Fatalf("open state %d/%d/%d/%d != replay state %d/%d/%d/%d",
				len(st2.Completed), len(st2.InFlight), len(st2.Pending), len(st2.Cancelled),
				len(st.Completed), len(st.InFlight), len(st.Pending), len(st.Cancelled))
		}
		const probe = 1 << 30 // far outside any fuzzed seq range
		if err := l.AppendIntent(probe, 77); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := l.AppendCompletion(probe, 0, 0, "h"); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		st3, err := Replay(dir)
		if err != nil {
			t.Fatalf("re-replay after repair: %v", err)
		}
		if st3.TornTails != 0 {
			t.Fatalf("torn tail survived repair: %d", st3.TornTails)
		}
		if !st3.CompletedOK()[probe] {
			t.Fatal("probe record lost")
		}
	})
}

// FuzzArgsDigest checks the digest is stable and boundary-sensitive.
func FuzzArgsDigest(f *testing.F) {
	f.Add("a", "bc")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, a, b string) {
		d1 := ArgsDigest([]string{a, b})
		if d1 != ArgsDigest([]string{a, b}) {
			t.Fatal("digest not deterministic")
		}
		// Shifting a boundary byte must change the digest (length
		// prefixes prevent concatenation collisions).
		if len(a) > 0 {
			d2 := ArgsDigest([]string{a[:len(a)-1], a[len(a)-1:] + b})
			if d1 == d2 {
				t.Fatalf("boundary shift collided: %q|%q", a, b)
			}
		}
	})
}
