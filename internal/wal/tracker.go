package wal

import (
	"encoding/binary"
	"maps"
	"math"
	"sort"
)

// tracker is the Log's live replay-equivalent state, the source of
// rotation checkpoints. It exists because the obvious representation —
// the same maps replay uses — is far too slow for the flusher: every
// record costs ~4 map operations plus incremental map growth and GC
// pressure, and on a small host the flusher's CPU comes straight out
// of the dispatch pipeline's budget. Engine seqs are dense integers
// assigned from 1, so the tracker keeps one small struct per seq in a
// flat array (a single bounds-checked cache line touch per record).
// Seqs beyond trackDense — only reachable through hand-crafted or
// foreign logs, never the engine — fall back to a map-backed overflow.
type tracker struct {
	seqs []seqState // indexed by seq; entry 0 unused
	over *State     // lazily allocated; holds seqs >= trackDense

	// A job service's pending commands and counted cancels, carried
	// into each new segment on rotation. Empty on the local path.
	cmds    map[int]string
	cancels map[int]bool
}

// seqState is the per-seq record: digest from the last intent, exit
// from the last completion, and which of the two record kinds have
// been seen. Kept at 16 bytes so intent and completion for a seq share
// one cache line touch.
type seqState struct {
	digest uint64
	exit   int32
	flags  uint8
	_      [3]byte
}

const (
	fIntent = 1 << 0 // an intent record was seen for this seq
	fDone   = 1 << 1 // a completion record was seen for this seq

	// trackDense bounds the dense array: seqs below it cost 16 bytes
	// each (allocated lazily up to the highest seq actually seen), seqs
	// at or above it go to the overflow maps.
	trackDense = 8 << 20
)

// clampExit fits an exit status into the tracker's int32 slot. Real
// exit statuses are tiny; only hand-crafted appends can exceed it.
func clampExit(exit int) int32 {
	if exit > math.MaxInt32 {
		return math.MaxInt32
	}
	if exit < math.MinInt32 {
		return math.MinInt32
	}
	return int32(exit)
}

// newTracker builds a tracker from a replayed State (the state of the
// segments already on disk when the log was opened).
func newTracker(st *State) *tracker {
	t := &tracker{cmds: maps.Clone(st.Pending), cancels: maps.Clone(st.Cancelled)}
	for seq, exit := range st.Completed {
		t.completion(seq, exit)
	}
	for seq := range st.InFlight {
		if t.ensure(seq) {
			t.seqs[seq].flags |= fIntent
		} else {
			t.over.InFlight[seq] = true
		}
	}
	for seq, d := range st.Digests {
		if t.ensure(seq) {
			t.seqs[seq].digest = d
		} else {
			t.over.Digests[seq] = d
		}
	}
	return t
}

// ensure grows the dense array to cover seq, or returns false (with
// t.over allocated) when seq belongs in the overflow.
func (t *tracker) ensure(seq int) bool {
	if seq >= trackDense {
		if t.over == nil {
			t.over = newState()
		}
		return false
	}
	if seq < len(t.seqs) {
		return true
	}
	n := seq + 1
	if c := cap(t.seqs); c >= n {
		t.seqs = t.seqs[:n]
		return true
	}
	c := 2 * cap(t.seqs)
	if c < n {
		c = n
	}
	if c < 1024 {
		c = 1024
	}
	if c > trackDense {
		c = trackDense
	}
	ns := make([]seqState, n, c)
	copy(ns, t.seqs)
	t.seqs = ns
	return true
}

// intent folds an intent record into the state: the digest is
// remembered (last wins) and the seq becomes in-flight unless already
// completed.
func (t *tracker) intent(seq int, digest uint64) {
	if t.ensure(seq) {
		t.seqs[seq].flags |= fIntent
		t.seqs[seq].digest = digest
		return
	}
	t.over.Digests[seq] = digest
	if _, done := t.over.Completed[seq]; !done {
		t.over.InFlight[seq] = true
	}
}

// completion folds a completion record into the state. Last completion
// wins, matching replay.
func (t *tracker) completion(seq, exit int) {
	delete(t.cmds, seq)
	if t.ensure(seq) {
		t.seqs[seq].flags |= fDone
		t.seqs[seq].exit = clampExit(exit)
		return
	}
	t.over.Completed[seq] = exit
	delete(t.over.InFlight, seq)
}

// submit folds a submit record: an intent with the command's digest,
// the command kept until the seq completes.
func (t *tracker) submit(seq int, cmd string) {
	t.intent(seq, ArgsDigest([]string{cmd}))
	t.cmds[seq] = cmd
}

// cancel folds a cancel record, which counts only while the seq has no
// completion.
func (t *tracker) cancel(seq int) {
	if seq < len(t.seqs) && t.seqs[seq].flags&fDone != 0 {
		return
	}
	if t.over != nil {
		if _, done := t.over.Completed[seq]; done {
			return
		}
	}
	t.cancels[seq] = true
}

// estCheckpointBytes upper-bounds the encoded size of a checkpoint of
// this state (dense entries are ~10 bytes each in practice; 24 covers
// worst-case varint widths).
func (t *tracker) estCheckpointBytes() int64 {
	n := int64(len(t.seqs))
	if t.over != nil {
		n += int64(len(t.over.Completed) + len(t.over.InFlight))
	}
	return 64 + 24*n
}

// appendCheckpointPayload encodes the tracker as a checkpoint record
// payload: the completed set (seq, exit, digest) then the in-flight
// set (seq, digest), both delta-encoded over ascending seqs. Dense
// seqs iterate in order for free; overflow seqs are all >= trackDense
// so appending them after the dense range preserves the ascending
// order the delta encoding requires.
func (t *tracker) appendCheckpointPayload(dst []byte) []byte {
	dst = append(dst, recCheckpoint)

	var overDone, overPend []int
	if t.over != nil {
		for seq := range t.over.Completed {
			overDone = append(overDone, seq)
		}
		sort.Ints(overDone)
		for seq := range t.over.InFlight {
			overPend = append(overPend, seq)
		}
		sort.Ints(overPend)
	}

	nDone, nPend := 0, 0
	for seq := 1; seq < len(t.seqs); seq++ {
		switch {
		case t.seqs[seq].flags&fDone != 0:
			nDone++
		case t.seqs[seq].flags&fIntent != 0:
			nPend++
		}
	}

	dst = appendUvarint(dst, uint64(nDone+len(overDone)))
	prev := 0
	for seq := 1; seq < len(t.seqs); seq++ {
		if t.seqs[seq].flags&fDone == 0 {
			continue
		}
		dst = appendUvarint(dst, uint64(seq-prev))
		dst = appendZigzag(dst, int64(t.seqs[seq].exit))
		dst = binary.LittleEndian.AppendUint64(dst, t.seqs[seq].digest)
		prev = seq
	}
	for _, seq := range overDone {
		dst = appendUvarint(dst, uint64(seq-prev))
		dst = appendZigzag(dst, int64(t.over.Completed[seq]))
		dst = binary.LittleEndian.AppendUint64(dst, t.over.Digests[seq])
		prev = seq
	}

	dst = appendUvarint(dst, uint64(nPend+len(overPend)))
	prev = 0
	for seq := 1; seq < len(t.seqs); seq++ {
		if t.seqs[seq].flags&fDone != 0 || t.seqs[seq].flags&fIntent == 0 {
			continue
		}
		dst = appendUvarint(dst, uint64(seq-prev))
		dst = binary.LittleEndian.AppendUint64(dst, t.seqs[seq].digest)
		prev = seq
	}
	for _, seq := range overPend {
		dst = appendUvarint(dst, uint64(seq-prev))
		dst = binary.LittleEndian.AppendUint64(dst, t.over.Digests[seq])
		prev = seq
	}
	return dst
}
