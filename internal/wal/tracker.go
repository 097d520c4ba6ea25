package wal

import (
	"cmp"
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"repro/internal/ring"
)

// tracker is the Log's live replay-equivalent state, the source of
// rotation checkpoints. It exists because the obvious representation —
// the same maps replay uses — is far too slow for the flusher: every
// record costs ~4 map operations plus incremental map growth and GC
// pressure, and on a small host the flusher's CPU comes straight out
// of the dispatch pipeline's budget.
//
// Its size follows the run's live state, not its length. A completion
// watermark w splits the seqs. Every seq below w is terminal, and is
// either folded — an ok seq whose intent digest survives only inside
// the fold hash of its run — or one of a sparse list of exceptions
// (failed, cancelled, or without a usable digest). From w up, the
// window keeps one small struct per seq in a ring (engine seqs are
// dense integers assigned from 1, so a record costs one indexed cache
// line touch); w advances as the front of the window finishes. A seq
// trackSpan or more past w that the window has not reached — only
// hand-crafted or foreign logs have one — waits in a sparse overflow
// map instead, so a far-ahead seq never allocates the gap.
type tracker struct {
	w     int                 // watermark: every seq below it is terminal
	win   ring.Ring[seqState] // seqs w, w+1, …, w+win.Len()-1
	exc   []exception         // seqs below w that are not folded, ascending
	folds []fold              // runs of folded seqs below w, ascending
	over  map[int]*seqState   // seqs past the window and trackSpan or more past w

	// A job service's pending commands, carried into each new segment
	// on rotation. Empty on the local path.
	cmds map[int]string
}

// seqState is the per-seq record: digest from the last intent, exit
// from the last completion, and which record kinds have been seen.
// Kept at 16 bytes so intent and completion for a seq share one cache
// line touch.
type seqState struct {
	digest uint64
	exit   int32
	flags  uint8
	_      [3]byte
}

const (
	// fStarted: an intent or submit was logged, or a replayed log
	// completed the seq. The watermark passes only started seqs, so a
	// completion the flusher wrote a tick before its intent waits in
	// the window for the intent.
	fStarted = 1 << iota
	fDigest  // digest is the seq's intent digest (State.Digests has it)
	fDone    // a completion was logged; exit is the last one's status
	fCancel  // a cancel was logged while the seq had no completion
)

// trackSpan bounds how far past the watermark the window reaches: at
// 16 bytes a seq, a window this long costs what the tracker's dense
// array once cost for a run this long. It only fills when a seq the
// engine never logged holds the watermark back while later jobs run.
const trackSpan = 8 << 20

// terminal reports whether the watermark may pass the seq.
func (s *seqState) terminal() bool {
	return s.flags&fStarted != 0 && s.flags&(fDone|fCancel) != 0
}

// foldable reports whether the seq completed ok with a digest a resume
// can check, and was never cancelled: the only kind a fold may absorb.
func (s *seqState) foldable() bool {
	return s.flags&(fDigest|fDone|fCancel) == fDigest|fDone && s.exit == 0 && s.digest != 0
}

// exception is a seq below the watermark that is not folded.
type exception struct {
	seq int
	s   seqState
}

// fold covers the ok seqs lo..hi, all below the watermark. h is the
// order-sensitive hash of their intent digests (foldStep from
// foldSeed), which Verifier recomputes from a resumed run's input.
type fold struct {
	lo, hi int
	h      uint64
}

// foldSeed starts every fold's hash.
const foldSeed = 0x6a09e667f3bcc909

// foldStep extends a fold hash by one digest. Each step is a bijection
// of h for a fixed digest (xor, multiply by an odd constant, xorshift),
// so a run that differs from the logged one at exactly one seq always
// hashes differently; more changes collide with probability 2^-64.
func foldStep(h, digest uint64) uint64 {
	h = (h ^ digest) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

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
// segments already on disk when the log was opened). Seqs the replay
// completed count as started: whatever intent they had is on disk or
// folded, and a resumed run logs a new one only for a seq it re-runs.
func newTracker(st *State) *tracker {
	t := &tracker{w: max(st.watermark, 1), folds: slices.Clone(st.folds), cmds: maps.Clone(st.Pending)}
	// Each map is iterated rather than probed per seq: a restart over a
	// long run's state is dominated by map access. Below the watermark
	// the exit-0 completions inside a fold are folded, unless a digest
	// or a cancel makes them exceptions.
	below := map[int]*seqState{}
	entry := func(seq int) *seqState {
		if seq >= t.w {
			return t.at(seq)
		}
		s := below[seq]
		if s == nil {
			s = new(seqState)
			if exit, done := st.Completed[seq]; done {
				s.flags, s.exit = fStarted|fDone, clampExit(exit)
			} else if st.InFlight[seq] {
				s.flags = fStarted
			}
			below[seq] = s
		}
		return s
	}
	for seq, exit := range st.Completed {
		if seq >= t.w {
			s := t.at(seq)
			s.flags |= fStarted | fDone
			s.exit = clampExit(exit)
		} else if exit != 0 || !t.inFold(seq) {
			entry(seq)
		}
	}
	for seq := range st.InFlight {
		entry(seq).flags |= fStarted
	}
	for seq, d := range st.Digests {
		s := entry(seq)
		s.flags |= fDigest
		s.digest = d
	}
	for seq := range st.Cancelled {
		entry(seq).flags |= fCancel
	}
	for seq, s := range below {
		t.exc = append(t.exc, exception{seq: seq, s: *s})
	}
	slices.SortFunc(t.exc, func(a, b exception) int { return cmp.Compare(a.seq, b.seq) })
	t.advance()
	// The window was sized for every seq the replay named; keep only
	// what is still live.
	if t.win.Cap() > 1024 && t.win.Cap() > 4*t.win.Len() {
		var live ring.Ring[seqState]
		for t.win.Len() > 0 {
			live.Push(t.win.Pop())
		}
		t.win = live
	}
	return t
}

// inFold reports whether a fold covers seq.
func (t *tracker) inFold(seq int) bool {
	i, _ := slices.BinarySearchFunc(t.folds, seq, func(f fold, seq int) int { return cmp.Compare(f.hi, seq) })
	return i < len(t.folds) && t.folds[i].lo <= seq
}

// at returns the entry of seq (at or above the watermark), extending
// the window to cover it or, trackSpan or more past the watermark,
// placing it in the overflow. An overflow entry the window reaches
// moves into it.
func (t *tracker) at(seq int) *seqState {
	i := seq - t.w
	if i < t.win.Len() {
		return t.win.At(i)
	}
	if i >= trackSpan {
		if t.over == nil {
			t.over = map[int]*seqState{}
		}
		s := t.over[seq]
		if s == nil {
			s = new(seqState)
			t.over[seq] = s
		}
		return s
	}
	for t.win.Len() <= i {
		var s seqState
		if len(t.over) > 0 {
			next := t.w + t.win.Len()
			if o := t.over[next]; o != nil {
				s = *o
				delete(t.over, next)
			}
		}
		t.win.Push(s)
	}
	return t.win.At(i)
}

// lookup returns seq's entry for update, or nil when seq is folded
// (below the watermark and not an exception) or not a seq at all.
func (t *tracker) lookup(seq int) *seqState {
	if seq >= t.w {
		return t.at(seq)
	}
	if i, ok := t.excIndex(seq); ok {
		return &t.exc[i].s
	}
	return nil
}

func (t *tracker) excIndex(seq int) (int, bool) {
	return slices.BinarySearchFunc(t.exc, seq, func(e exception, seq int) int { return cmp.Compare(e.seq, seq) })
}

// intent folds an intent record into the state: the digest is
// remembered (last wins). A folded seq completed ok, and its digest
// lives in its run's fold, so a late intent for it changes nothing.
func (t *tracker) intent(seq int, digest uint64) {
	if s := t.lookup(seq); s != nil {
		s.flags |= fStarted | fDigest
		s.digest = digest
	}
}

// logged reports whether seq's entry already holds an intent with this
// digest, so that writing the intent again would replay to nothing new.
// It never extends the window.
func (t *tracker) logged(seq int, digest uint64) bool {
	var s *seqState
	if i := seq - t.w; i >= 0 && i < t.win.Len() {
		s = t.win.At(i)
	} else if i < 0 {
		if j, ok := t.excIndex(seq); ok {
			s = &t.exc[j].s
		}
	}
	return s != nil && s.flags&fDigest != 0 && s.digest == digest
}

// completion folds a completion record into the state. Last completion
// wins, matching replay.
func (t *tracker) completion(seq, exit int) {
	delete(t.cmds, seq)
	s := t.lookup(seq)
	if s == nil {
		if seq < 1 || exit == 0 {
			return
		}
		// A folded seq completed again with a failure, which only a
		// hand-crafted log does (a resume never re-runs an ok seq). It
		// becomes an exception; its digest stays in the fold.
		i, _ := t.excIndex(seq)
		t.exc = slices.Insert(t.exc, i, exception{seq: seq, s: seqState{flags: fStarted}})
		s = &t.exc[i].s
	}
	s.flags |= fDone
	s.exit = clampExit(exit)
}

// submit folds a submit record: an intent with the command's digest,
// the command kept until the seq completes.
func (t *tracker) submit(seq int, cmd string) {
	s := t.lookup(seq)
	if s == nil {
		return
	}
	s.flags |= fStarted | fDigest
	s.digest = ArgsDigest([]string{cmd})
	if s.flags&fDone == 0 {
		t.cmds[seq] = cmd
	}
}

// cancel folds a cancel record, which counts only while the seq has no
// completion.
func (t *tracker) cancel(seq int) {
	if s := t.lookup(seq); s != nil && s.flags&fDone == 0 {
		s.flags |= fCancel
	}
}

// advance moves the watermark over the finished front of the window:
// each ok seq extends the fold that ends just below it (or starts a new
// one), every other seq is kept as an exception.
func (t *tracker) advance() {
	for t.win.Len() > 0 {
		s := t.win.Front()
		if !s.terminal() {
			return
		}
		if !s.foldable() {
			t.exc = append(t.exc, exception{seq: t.w, s: *s})
		} else if n := len(t.folds); n > 0 && t.folds[n-1].hi == t.w-1 {
			f := &t.folds[n-1]
			f.hi = t.w
			f.h = foldStep(f.h, s.digest)
		} else {
			t.folds = append(t.folds, fold{lo: t.w, hi: t.w, h: foldStep(foldSeed, s.digest)})
		}
		t.win.Pop()
		t.w++
	}
}

// estCheckpointBytes upper-bounds the encoded size of a checkpoint of
// this state: 24 bytes covers a fold or an entry at worst-case varint
// widths.
func (t *tracker) estCheckpointBytes() int64 {
	return 64 + 24*int64(len(t.folds)+len(t.exc)+t.win.Len()+len(t.over))
}

// appendCheckpointPayload encodes the tracker as a watermark checkpoint
// payload:
//
//	'W' · w · nfolds · {lo−prev, hi−lo, u64 hash}… · nentries · {seq−prev, flags, [exit], [u64 digest]}…
//
// (uvarints unless marked; exit is zigzag, present with fDone; digest
// is present with fDigest). The entries are the exceptions, the
// window's non-empty seqs and the overflow, in ascending seq order.
func (t *tracker) appendCheckpointPayload(dst []byte) []byte {
	t.advance()
	dst = append(dst, recWatermark)
	dst = appendUvarint(dst, uint64(t.w))
	dst = appendUvarint(dst, uint64(len(t.folds)))
	prev := 0
	for _, f := range t.folds {
		dst = appendUvarint(dst, uint64(f.lo-prev))
		dst = appendUvarint(dst, uint64(f.hi-f.lo))
		dst = binary.LittleEndian.AppendUint64(dst, f.h)
		prev = f.hi
	}

	n := len(t.exc) + len(t.over)
	for i := 0; i < t.win.Len(); i++ {
		if t.win.At(i).flags != 0 {
			n++
		}
	}
	dst = appendUvarint(dst, uint64(n))
	prev = 0
	for i := range t.exc {
		dst = appendEntry(dst, t.exc[i].seq-prev, &t.exc[i].s)
		prev = t.exc[i].seq
	}
	for i := 0; i < t.win.Len(); i++ {
		if s := t.win.At(i); s.flags != 0 {
			dst = appendEntry(dst, t.w+i-prev, s)
			prev = t.w + i
		}
	}
	far := make([]int, 0, len(t.over))
	for seq := range t.over {
		far = append(far, seq)
	}
	slices.Sort(far)
	for _, seq := range far {
		dst = appendEntry(dst, seq-prev, t.over[seq])
		prev = seq
	}
	return dst
}

func appendEntry(dst []byte, delta int, s *seqState) []byte {
	dst = appendUvarint(dst, uint64(delta))
	dst = append(dst, s.flags)
	if s.flags&fDone != 0 {
		dst = appendZigzag(dst, int64(s.exit))
	}
	if s.flags&fDigest != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, s.digest)
	}
	return dst
}
