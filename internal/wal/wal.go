package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are fsynced to stable
// storage.
type SyncPolicy int

const (
	// SyncInterval group-commits: appends buffer, and a background
	// flusher fsyncs every Options.Interval. A crash loses at most one
	// interval of records — the throughput-friendly default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs inside every append before it returns: an
	// intent is durable before its job starts, a completion before the
	// next result is collected. Strongest guarantee, one fsync per
	// record.
	SyncAlways
	// SyncNever leaves durability to the OS page cache: records survive
	// a process kill (the write() already happened, minus the buffered
	// tail flushed on segment pressure and Close) but not a host crash.
	SyncNever
)

// String returns the policy's CLI spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("wal.SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the CLI spelling of a sync policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
	}
}

// Crash points instrumented inside the Log, for fault injection via
// Options.CrashHook (see internal/faults.CrashPlan). Each fires with
// the log's lock held, immediately before the named operation.
const (
	PointAppendIntent     = "wal.append.intent"
	PointAppendCompletion = "wal.append.completion"
	PointAppendSubmit     = "wal.append.submit"
	PointAppendCancel     = "wal.append.cancel"
	PointSyncPre          = "wal.sync.pre"          // before the buffer flush
	PointSyncMid          = "wal.sync.mid"          // flushed, before fsync
	PointRotateCheckpoint = "wal.rotate.checkpoint" // new segment created, checkpoint not yet written
	PointRotateDelete     = "wal.rotate.delete"     // checkpoint durable, old segments not yet deleted
)

// ErrCrashed is returned by every operation after a CrashHook fired:
// the log behaves as if the process died at that point (buffered
// records lost, file closed mid-state).
var ErrCrashed = errors.New("wal: simulated crash")

// Options configures a Log.
type Options struct {
	// Sync is the durability policy (default SyncInterval).
	Sync SyncPolicy
	// Interval is the group-commit period for SyncInterval (default
	// 25ms). Each commit pays a fixed fsync cost (hundreds of µs of
	// kernel time on common filesystems) regardless of how little data
	// is dirty, so the default favors few commits; jobs worth running
	// under a workflow manager take far longer than the loss window.
	Interval time.Duration
	// SegmentBytes rotates to a fresh, checkpoint-compacted segment
	// once the current one exceeds this size (default 64 MiB — roughly
	// three million jobs' worth of records). The checkpoint a rotation
	// writes holds the live window, the failures and one hash per run of
	// ok jobs between them, not the run's history, so the log stays
	// about two segments long however many jobs the run has.
	SegmentBytes int64
	// FsyncObserver, when non-nil, receives the duration of every
	// fsync — the wal_fsync_seconds telemetry series.
	FsyncObserver func(time.Duration)
	// CrashHook, when non-nil, is consulted at the instrumented crash
	// points; returning true makes the log simulate a process crash at
	// that point (chaos testing — see internal/faults.CrashPlan).
	CrashHook func(point string) bool
}

func (o *Options) withDefaults() Options {
	opt := *o
	if opt.Interval <= 0 {
		opt.Interval = 25 * time.Millisecond
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 64 << 20
	}
	return opt
}

// Log is an open, appendable run log. All methods are safe for
// concurrent use.
//
// Under SyncAlways (or with a CrashHook armed) appends encode, write
// and sync inline. Under SyncInterval and SyncNever they instead push
// the record onto a staging buffer and return immediately; the
// group-commit flusher encodes, writes and (interval) fsyncs each tick.
// This keeps the dispatch hot path to an uncontended lock and a slice
// append — the engine's input goroutine and collector each own their
// stream, so they never contend — without weakening the policy's
// guarantee: group commit already loses up to one interval of records
// on a crash, whether they waited in a write buffer or a staging slice.
// The price is lazy error reporting: a write failure surfaces on a
// later append, Sync or Close rather than the append that caused it.
//
// Submits and cancels (a job service's records) never stage: they are
// written through under the lock because their return is an ack. The
// group-commit fsync runs outside the lock so they never wait for it.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	segIdx   int
	segSize  int64
	ckptSize int64 // framed size of this segment's rotation head (carried frames + checkpoint), if any
	dirty    bool
	err      error // sticky: first write/sync failure or ErrCrashed
	closed   bool
	scratch  []byte // payload encode buffer, reused across appends
	frame    []byte // frame encode buffer, reused across appends
	batch    []byte // drain batch encode buffer, reused across drains
	lastSeq  int    // highest seq replayed or submitted; AppendSubmit continues from it

	st *tracker // live replay-equivalent state, feeds rotation checkpoints

	// Async staging (SyncInterval/SyncNever without a CrashHook).
	// Intents and completions get separate buffers because they have
	// disjoint single producers; errp mirrors the sticky error so the
	// staging fast path never touches mu. The flusher drains intents
	// before completions: a completion that slips between the two
	// swaps can at worst be written one tick before its intent, and a
	// completion-without-intent replays as completed — the benign
	// direction. spareIntents/spareCompls double-buffer the swaps so
	// steady state stages without allocating.
	async   bool
	errp    atomic.Pointer[error]
	flushMu sync.Mutex // serializes drainStaged (tick vs Sync vs Close)
	// The two stages are padded onto separate cache lines: the input
	// goroutine hammers intents while the collector hammers compls,
	// and false sharing between them would put a coherence miss on
	// every append of both hot paths.
	_            [64]byte
	intents      stage
	_            [64]byte
	compls       stage
	_            [64]byte
	spareIntents []stagedRec
	spareCompls  []stagedRec

	stopFlush chan struct{}
	flushDone chan struct{}

	// Introspection counters (Stats). Atomics so the accessor never
	// adds contention to the append hot path beyond one uncontended
	// atomic add per append.
	nAppended  atomic.Int64
	nSyncs     atomic.Int64
	lastSyncNS atomic.Int64
}

// stagedRec is one append waiting for the flusher, kept small because
// producers copy it twice (argument, then append) on the dispatch hot
// path. The runtime is pre-converted to microseconds — the on-disk
// unit — by the producer.
type stagedRec struct {
	seq    int32
	exit   int32
	us     int64
	digest uint64
	host   string
}

// stage is a mutex-guarded staging buffer with one producer (an engine
// goroutine) and one consumer (the flusher).
type stage struct {
	mu  sync.Mutex
	buf []stagedRec
}

// add stages one record. The fields come in as scalars (registers)
// rather than a struct so the hot producer path copies them exactly
// once, into the buffer.
func (s *stage) add(seq, exit int32, us int64, digest uint64, host string) {
	s.mu.Lock()
	s.buf = append(s.buf, stagedRec{seq: seq, exit: exit, us: us, digest: digest, host: host})
	s.mu.Unlock()
}

// swapOut installs spare as the new staging buffer and returns the
// filled one.
func (s *stage) swapOut(spare []stagedRec) []stagedRec {
	s.mu.Lock()
	b := s.buf
	s.buf = spare
	s.mu.Unlock()
	return b
}

var errClosed = errors.New("wal: log closed")

// Open replays (and repairs) the run log in dir, creating it if
// needed, and returns the log opened for append plus a snapshot of the
// replayed state for resume decisions. The last segment's torn tail,
// if any, is truncated on disk so the next append extends a valid
// record stream.
func Open(dir string, opt Options) (*Log, *State, error) {
	o := opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st, segs, err := replayDir(dir)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{dir: dir, opt: o, st: newTracker(st), lastSeq: st.LastSeq()}
	if len(segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, nil, err
		}
	} else {
		last := segs[len(segs)-1]
		if last.validLen < int64(headerSize) {
			// Empty or header-mangled final segment: rewrite it whole.
			f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				return nil, nil, err
			}
			if err := writeHeader(f); err != nil {
				f.Close()
				return nil, nil, err
			}
			l.attach(f, last.index, int64(headerSize))
		} else {
			if last.validLen < last.size {
				if err := os.Truncate(last.path, last.validLen); err != nil {
					return nil, nil, err
				}
			}
			f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, err
			}
			l.attach(f, last.index, last.validLen)
		}
	}

	l.async = o.CrashHook == nil && o.Sync != SyncAlways
	if l.async || o.Sync == SyncInterval {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, st, nil // the tracker copied what it keeps: st is the caller's
}

func writeHeader(f *os.File) error {
	var hdr [headerSize]byte
	copy(hdr[:], segMagic)
	hdr[len(segMagic)] = byte(segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	return nil
}

func (l *Log) attach(f *os.File, idx int, size int64) {
	l.f = f
	l.w = bufio.NewWriterSize(f, 64<<10)
	l.segIdx = idx
	l.segSize = size
	l.ckptSize = 0
}

func (l *Log) createSegment(idx int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(idx)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeHeader(f); err != nil {
		f.Close()
		return err
	}
	l.attach(f, idx, int64(headerSize))
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// AppendIntent durably (per the sync policy) records that job seq is
// about to be executed. digest is ArgsDigest of the job's input record.
// An intent the log already holds for seq — a job service's submit
// carries the same digest — is not written again.
func (l *Log) AppendIntent(seq int, digest uint64) error {
	if l.async {
		if ep := l.errp.Load(); ep != nil {
			return *ep
		}
		l.intents.add(int32(seq), 0, 0, digest, "")
		l.nAppended.Add(1)
		return nil
	}
	l.nAppended.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkLocked(PointAppendIntent); err != nil {
		return err
	}
	if l.st.logged(seq, digest) {
		return nil
	}
	if err := l.writeIntentLocked(seq, digest); err != nil {
		return err
	}
	return l.commitLocked()
}

// AppendCompletion records job seq's outcome.
func (l *Log) AppendCompletion(seq, exit int, runtime time.Duration, host string) error {
	if l.async {
		if ep := l.errp.Load(); ep != nil {
			return *ep
		}
		us := runtime.Microseconds()
		if us < 0 {
			us = 0
		}
		l.compls.add(int32(seq), clampExit(exit), us, 0, host)
		l.nAppended.Add(1)
		return nil
	}
	l.nAppended.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkLocked(PointAppendCompletion); err != nil {
		return err
	}
	if err := l.writeCompletionLocked(seq, exit, runtime, host); err != nil {
		return err
	}
	return l.commitLocked()
}

// AppendSubmit assigns the next len(cmds) seqs, densely, to a job
// service's accepted commands and logs a submit record for each; first
// is the seq of cmds[0]. The records reach the segment file before it
// returns, so they survive a process kill, and under SyncAlways the
// disk, with one fsync for the whole batch. The return is the ack.
func (l *Log) AppendSubmit(cmds []string) (first int, err error) {
	l.nAppended.Add(int64(len(cmds)))
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkLocked(PointAppendSubmit); err != nil {
		return 0, err
	}
	first = l.lastSeq + 1
	for i, cmd := range cmds {
		l.scratch = appendSubmitPayload(l.scratch[:0], first+i, cmd)
		if err := l.writeLocked(l.scratch); err != nil {
			return 0, err
		}
		l.st.submit(first+i, cmd)
	}
	l.lastSeq += len(cmds)
	if err := l.writeThroughLocked(l.opt.Sync == SyncAlways); err != nil {
		return 0, err
	}
	return first, nil
}

// AppendCancel logs a job service's cancel of seq and fsyncs it before
// returning, whatever the policy. Replay counts it only if seq has no
// completion earlier in the log, so it drains the staged records
// first: a completion appended before the call precedes the cancel.
func (l *Log) AppendCancel(seq int) error {
	l.nAppended.Add(1)
	if err := l.drainStaged(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkLocked(PointAppendCancel); err != nil {
		return err
	}
	l.scratch = appendCancelPayload(l.scratch[:0], seq)
	if err := l.writeLocked(l.scratch); err != nil {
		return err
	}
	l.st.cancel(seq)
	l.st.advance()
	return l.writeThroughLocked(true)
}

// writeThroughLocked ends a submit or cancel append: the records reach
// the file, and with sync the disk. It rotates a full segment only when
// no flusher is running, because the flusher fsyncs outside the lock
// and must not find its file closed under it; the flusher rotates
// instead.
func (l *Log) writeThroughLocked(sync bool) error {
	if !l.async && l.rotateDueLocked() {
		return l.rotateLocked()
	}
	if sync {
		return l.syncLocked()
	}
	if err := l.w.Flush(); err != nil {
		l.setErrLocked(err)
		return err
	}
	return nil
}

func (l *Log) writeIntentLocked(seq int, digest uint64) error {
	l.scratch = appendIntentPayload(l.scratch[:0], seq, digest)
	if err := l.writeLocked(l.scratch); err != nil {
		return err
	}
	l.st.intent(seq, digest)
	l.st.advance() // its completion may have been written first
	return nil
}

func (l *Log) writeCompletionLocked(seq, exit int, runtime time.Duration, host string) error {
	l.scratch = appendCompletionPayload(l.scratch[:0], seq, exit, runtime, host)
	if err := l.writeLocked(l.scratch); err != nil {
		return err
	}
	l.st.completion(seq, exit)
	l.st.advance()
	return nil
}

// drainStaged moves everything staged into the segment file: encode,
// frame, rotate when full, and (SyncInterval) fsync / (SyncNever)
// flush. Called from the flusher tick, Sync and Close; never
// concurrently with itself (single flusher, and Sync/Close serialize
// through it only after stopping the flusher or via flushMu).
func (l *Log) drainStaged() error {
	if !l.async {
		return nil
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	ib := l.intents.swapOut(l.spareIntents[:0])
	cb := l.compls.swapOut(l.spareCompls[:0])
	l.spareIntents, l.spareCompls = ib, cb

	l.mu.Lock()
	f, err := l.writeStagedLocked(ib, cb)
	l.mu.Unlock()
	if f == nil || err != nil {
		return err
	}
	// The group-commit fsync runs outside mu so that submits and cancels
	// never wait behind it. Holding flushMu keeps f open meanwhile: only
	// rotation, which runs inside this function, and Close close it.
	if err := l.fsync(f); err != nil {
		l.mu.Lock()
		l.setErrLocked(err)
		l.mu.Unlock()
		return err
	}
	return nil
}

// writeStagedLocked writes the drained records and anything a submit
// left unsynced, rotating a full segment. It returns the file the
// caller must fsync, or nil when the policy needs none.
func (l *Log) writeStagedLocked(ib, cb []stagedRec) (*os.File, error) {
	if l.err != nil {
		return nil, l.err
	}
	if l.closed {
		return nil, errClosed
	}
	if len(ib)+len(cb) == 0 && !l.dirty {
		return nil, nil
	}
	// Encode the whole commit as batch records — intent and completion
	// payloads concatenated under a shared frame and CRC — so the
	// per-record framing cost (8 bytes plus a checksum call each) is
	// paid once per drain. Per-record flusher CPU matters: on a small
	// host it competes directly with the dispatch pipeline.
	buf := l.batch[:0]
	buf = append(buf, recBatch)
	flushBatch := func() error {
		if len(buf) <= 1 {
			return nil
		}
		if err := l.writeLocked(buf); err != nil {
			return err
		}
		buf = buf[:1]
		return nil
	}
	// Cap one batch payload well under maxRecord: a stalled flusher can
	// accumulate an arbitrarily deep backlog, and an oversized frame
	// would be rejected by replay as torn.
	const batchCap = 4 << 20
	for i := range ib {
		if l.st.logged(int(ib[i].seq), ib[i].digest) {
			continue
		}
		buf = appendIntentPayload(buf, int(ib[i].seq), ib[i].digest)
		l.st.intent(int(ib[i].seq), ib[i].digest)
		if len(buf) >= batchCap {
			if err := flushBatch(); err != nil {
				return nil, err
			}
		}
	}
	for i := range cb {
		buf = appendCompletionPayloadUS(buf, int(cb[i].seq), int(cb[i].exit), cb[i].us, cb[i].host)
		l.st.completion(int(cb[i].seq), int(cb[i].exit))
		if len(buf) >= batchCap {
			if err := flushBatch(); err != nil {
				return nil, err
			}
		}
	}
	err := flushBatch()
	l.batch = buf[:0]
	if err != nil {
		return nil, err
	}
	l.st.advance()
	if l.rotateDueLocked() {
		return nil, l.rotateLocked()
	}
	// Push the bytes to the kernel (they survive a process kill);
	// SyncInterval then adds the disk barrier, SyncNever skips it.
	if err := l.w.Flush(); err != nil {
		l.setErrLocked(err)
		return nil, err
	}
	l.dirty = false
	if l.opt.Sync != SyncInterval {
		return nil, nil
	}
	return l.f, nil
}

// setErrLocked records the first failure, mirrored into errp so the
// async staging fast path sees it without taking mu.
func (l *Log) setErrLocked(err error) {
	if l.err == nil {
		l.err = err
		l.errp.Store(&err)
	}
}

// checkLocked validates the log is usable and consults the crash hook.
func (l *Log) checkLocked(point string) error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.hitLocked(point) {
		return ErrCrashed
	}
	return nil
}

// hitLocked fires the crash hook at the named point; true simulates
// the process dying there: buffered-but-unflushed records vanish (the
// bufio buffer is the process memory a real SIGKILL loses) and the
// file closes as-is.
func (l *Log) hitLocked(point string) bool {
	if l.opt.CrashHook == nil || !l.opt.CrashHook(point) {
		return false
	}
	l.setErrLocked(ErrCrashed)
	if l.f != nil {
		l.f.Close() // without flushing l.w: the buffer dies with the "process"
	}
	return true
}

// writeLocked frames and buffers one record payload.
func (l *Log) writeLocked(payload []byte) error {
	l.frame = appendFrame(l.frame[:0], payload)
	if _, err := l.w.Write(l.frame); err != nil {
		l.setErrLocked(err)
		return err
	}
	l.segSize += int64(len(l.frame))
	l.dirty = true
	return nil
}

// commitLocked applies the post-append policy: rotation when the
// segment is full (rotation syncs as a side effect), otherwise an
// inline fsync under SyncAlways.
func (l *Log) commitLocked() error {
	if l.rotateDueLocked() {
		return l.rotateLocked()
	}
	if l.opt.Sync == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// rotateDueLocked decides when the segment is full enough to rotate.
// The naive rule (segSize >= SegmentBytes) collapses when the head of
// the new segment — the carried pending commands and the checkpoint,
// which grow with the live window and the failures — approaches the
// segment budget: every rotation would immediately trigger the next, a
// compaction spiral spending all its time rewriting checkpoints.
// Requiring the segment to also hold twice its own head in fresh
// records keeps the amortized cost bounded (each head byte is paid for
// by at least two bytes of new records) whatever the backlog.
func (l *Log) rotateDueLocked() bool {
	if l.segSize < l.opt.SegmentBytes+2*l.ckptSize {
		return false
	}
	// Never rotate into a checkpoint that could not be written: a frame
	// over maxRecord is rejected by replay, so a run with that many
	// failures or that long a window stops compacting and lets the log
	// grow append-only instead.
	return l.st.estCheckpointBytes() <= maxRecord/2
}

// syncLocked flushes the buffer and fsyncs the segment.
func (l *Log) syncLocked() error {
	if l.hitLocked(PointSyncPre) {
		return ErrCrashed
	}
	if err := l.w.Flush(); err != nil {
		l.setErrLocked(err)
		return err
	}
	if l.hitLocked(PointSyncMid) {
		// Flushed but not fsynced: survives a process kill (the write()
		// happened) but models dying before the disk barrier.
		return ErrCrashed
	}
	if err := l.fsync(l.f); err != nil {
		l.setErrLocked(err)
		return err
	}
	l.dirty = false
	return nil
}

// fsync is the disk barrier, observed and counted.
func (l *Log) fsync(f *os.File) error {
	var start time.Time
	if l.opt.FsyncObserver != nil {
		start = time.Now()
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if l.opt.FsyncObserver != nil {
		l.opt.FsyncObserver(time.Since(start))
	}
	l.nSyncs.Add(1)
	l.lastSyncNS.Store(time.Now().UnixNano())
	return nil
}

// rotateLocked seals the current segment and starts the next one with
// a checkpoint snapshot, then deletes the segments the checkpoint
// subsumes (compaction). Crash-ordering: the old segment is fully
// durable before the new one exists; the checkpoint is durable before
// anything is deleted — replay is correct from any interleaving.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.setErrLocked(err)
		return err
	}
	oldIdx := l.segIdx
	if err := l.createSegment(oldIdx + 1); err != nil {
		l.setErrLocked(err)
		return err
	}
	if l.hitLocked(PointRotateCheckpoint) {
		return ErrCrashed
	}
	// Carry the pending submits ahead of the checkpoint, which replaces
	// everything but them; the checkpoint itself carries the cancels.
	for seq, cmd := range l.st.cmds {
		l.scratch = appendSubmitPayload(l.scratch[:0], seq, cmd)
		if err := l.writeLocked(l.scratch); err != nil {
			return err
		}
	}
	l.scratch = l.st.appendCheckpointPayload(l.scratch[:0])
	if len(l.scratch) > maxRecord {
		// The snapshot outgrew the largest legal frame (possible only
		// with estCheckpointBytes fooled). Writing it would produce a
		// record replay rejects — and deleting the older segments it was
		// meant to subsume would then lose state. Keep every segment and
		// carry on.
		return nil
	}
	if err := l.writeLocked(l.scratch); err != nil {
		return err
	}
	l.ckptSize = l.segSize - int64(headerSize)
	if err := l.syncLocked(); err != nil {
		return err
	}
	if l.hitLocked(PointRotateDelete) {
		return ErrCrashed
	}
	// Older segments are now redundant. Deletion failures are
	// tolerable: replay handles their presence (the checkpoint
	// supersedes them) and the next rotation retries.
	for idx := oldIdx; idx >= 1; idx-- {
		path := filepath.Join(l.dir, segName(idx))
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				break // already compacted this far
			}
			break
		}
	}
	return nil
}

// flushLoop is the SyncInterval group-commit goroutine.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if l.async {
				l.drainStaged()
				continue
			}
			l.mu.Lock()
			if l.err == nil && !l.closed && l.dirty {
				l.syncLocked()
			}
			l.mu.Unlock()
		case <-l.stopFlush:
			return
		}
	}
}

// Sync drains anything staged and forces a flush + fsync now,
// regardless of policy. Appends that completed before Sync was called
// are durable when it returns.
func (l *Log) Sync() error {
	if err := l.drainStaged(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errClosed
	}
	return l.syncLocked()
}

// Close drains, flushes, fsyncs and closes the log. Safe to call after
// a simulated crash (then a no-op beyond stopping the flusher).
func (l *Log) Close() error {
	if l.stopFlush != nil {
		l.mu.Lock()
		alreadyStopped := l.closed
		l.mu.Unlock()
		if !alreadyStopped {
			close(l.stopFlush)
			<-l.flushDone
		}
	}
	l.drainStaged()  // flusher stopped: final drain (errors go sticky)
	l.flushMu.Lock() // a concurrent Sync's drain may still be fsyncing f
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.closed = true
	if l.errp.Load() == nil {
		ec := errClosed
		l.errp.Store(&ec)
	}
	if l.err != nil {
		return l.err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.setErrLocked(err)
		return err
	}
	return nil
}
