// Package wal is a crash-safe write-ahead run log for the launcher: the
// durable record of which jobs a run intended to execute and which it
// finished, so a coordinator killed mid-burst resumes with exactly-once
// semantics instead of losing or double-running work.
//
// The log is a directory of segment files. Each segment starts with an
// 8-byte magic plus a version word, followed by length-prefixed,
// CRC32C-checksummed binary records:
//
//	[u32le payload length][u32le CRC32C(payload)][payload]
//
// Seven record types exist (first payload byte):
//
//   - intent ('I'): appended before a job is handed to an execution
//     slot or dist worker. Carries the job's seq and a 64-bit digest of
//     its input arguments, so a resumed run can reject a changed input
//     set instead of silently skipping the wrong jobs.
//   - submit ('S'): a job service's accepted command (seq, command).
//     Replay treats it as an intent with digest ArgsDigest([cmd]) and
//     keeps the command until the seq has a completion, so the log
//     alone says what is left to run.
//   - cancel ('X'): a job service's cancel of seq. It counts only if
//     the seq has no completion at that point in the log.
//   - completion ('C'): appended as the collector receives the job's
//     result. Carries seq, exit status, runtime and host.
//   - watermark checkpoint ('W'): a snapshot of the state, written at
//     the head of each new segment on rotation so older segments can be
//     deleted (compaction) without losing resume information. It
//     carries the completion watermark (every seq below it is
//     terminal), one fold hash per run of ok seqs below it, the sparse
//     exceptions below it (failed, cancelled, no digest) and every seq
//     from the watermark up, so its size follows live state and
//     failures, not the run's length. Pending commands are carried as S
//     frames written just before it.
//   - checkpoint ('K'): the full-snapshot checkpoint older versions
//     wrote (the completed and in-flight sets). Never written now;
//     replayed so their logs still resume.
//   - batch ('B'): a concatenation of intent and completion payloads
//     sharing one frame and one CRC, written by the group-commit
//     flusher so the per-record framing overhead (8 bytes and a
//     checksum call each) is paid once per commit instead of once per
//     job. A torn batch loses all its records together — the same
//     records a torn tail would have lost individually, since a batch
//     is exactly one commit's worth of appends.
//
// Replay tolerates torn tails — a crash mid-write leaves a partial or
// CRC-broken final record, which the replayer truncates away and counts
// — and Open repairs the tail in place before appending. Durability is
// governed by a sync policy: fsync on every append, group-commit on an
// interval, or never (OS page cache only).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
	"unsafe"
)

// Record type tags (first payload byte).
const (
	recIntent     = 'I'
	recCompletion = 'C'
	recCheckpoint = 'K'
	recWatermark  = 'W'
	recBatch      = 'B'
	recSubmit     = 'S'
	recCancel     = 'X'
)

// Segment framing constants.
const (
	segMagic   = "GOPARWAL"        // 8 bytes at the head of every segment
	segVersion = uint32(1)         // format version word after the magic
	headerSize = len(segMagic) + 4 // magic + u32le version
	frameSize  = 8                 // u32le length + u32le crc per record

	// maxRecord bounds a single record payload. Real records are tens of
	// bytes (checkpoints grow with job count but stay far below this);
	// the bound lets the replayer reject absurd lengths from corrupt
	// frames without attempting huge allocations.
	maxRecord = 64 << 20
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the same checksum family used by ext4 and Kafka.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ArgsDigest hashes a job's input record (its positional argument
// strings) to the 64-bit digest stored in intent records. Arguments are
// length-prefixed before hashing so ["ab","c"] and ["a","bc"] cannot
// collide. The digest is FNV-1a; it detects input-set drift between a
// crashed run and its resume, not adversarial collisions.
func ArgsDigest(args []string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	var lb [binary.MaxVarintLen64]byte
	for _, a := range args {
		n := binary.PutUvarint(lb[:], uint64(len(a)))
		for _, b := range lb[:n] {
			h = (h ^ uint64(b)) * prime
		}
		for i := 0; i < len(a); i++ {
			h = (h ^ uint64(a[i])) * prime
		}
	}
	return h
}

// appendUvarint / appendZigzag are small local helpers so record
// encoders stay allocation-free on a reused scratch buffer.
func appendUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append(dst, b[:binary.PutUvarint(b[:], v)]...)
}

func appendZigzag(dst []byte, v int64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append(dst, b[:binary.PutVarint(b[:], v)]...)
}

// appendIntentPayload encodes an intent record payload.
func appendIntentPayload(dst []byte, seq int, digest uint64) []byte {
	dst = append(dst, recIntent)
	dst = appendUvarint(dst, uint64(seq))
	dst = binary.LittleEndian.AppendUint64(dst, digest)
	return dst
}

// appendCompletionPayload encodes a completion record payload. Runtime
// is stored in microseconds (matching the joblog's precision).
func appendCompletionPayload(dst []byte, seq, exit int, runtime time.Duration, host string) []byte {
	us := runtime.Microseconds()
	if us < 0 {
		us = 0
	}
	return appendCompletionPayloadUS(dst, seq, exit, us, host)
}

// appendCompletionPayloadUS is appendCompletionPayload with the
// runtime already converted to microseconds (the staged form).
func appendCompletionPayloadUS(dst []byte, seq, exit int, us int64, host string) []byte {
	dst = append(dst, recCompletion)
	dst = appendUvarint(dst, uint64(seq))
	dst = appendZigzag(dst, int64(exit))
	dst = appendUvarint(dst, uint64(us))
	dst = appendUvarint(dst, uint64(len(host)))
	dst = append(dst, host...)
	return dst
}

// appendSubmitPayload encodes a submit record payload.
func appendSubmitPayload(dst []byte, seq int, cmd string) []byte {
	dst = append(dst, recSubmit)
	dst = appendUvarint(dst, uint64(seq))
	dst = appendUvarint(dst, uint64(len(cmd)))
	return append(dst, cmd...)
}

// appendCancelPayload encodes a cancel record payload.
func appendCancelPayload(dst []byte, seq int) []byte {
	return appendUvarint(append(dst, recCancel), uint64(seq))
}

// appendFrame wraps a payload in the on-disk frame: length, CRC32C,
// payload.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// payloadReader walks a record payload during replay.
type payloadReader struct {
	b   []byte
	off int
}

func (r *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated uvarint at payload offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *payloadReader) zigzag() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated varint at payload offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *payloadReader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("wal: truncated u64 at payload offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *payloadReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wal: truncated %d-byte field at payload offset %d", n, r.off)
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// seqInRange rejects seq values that cannot be real job sequence
// numbers (they are 1-based ints assigned by the engine). A CRC-valid
// but hand-crafted payload must not make replay allocate absurd maps.
func seqInRange(v uint64) bool { return v >= 1 && v <= math.MaxInt32 }

// seq reads a record's seq field, rejecting values seqInRange refuses.
func (r *payloadReader) seq(kind string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if !seqInRange(v) {
		return 0, fmt.Errorf("wal: %s seq %d out of range", kind, v)
	}
	return int(v), nil
}

// apply folds one record payload into the state. An error means the
// payload is structurally invalid despite a matching CRC — the replayer
// treats that exactly like a torn tail.
func (st *State) apply(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record payload")
	}
	r := &payloadReader{b: payload, off: 1}
	switch payload[0] {
	case recIntent:
		return st.applyIntent(r)

	case recCompletion:
		return st.applyCompletion(r)

	case recSubmit:
		seq, err := r.seq("submit")
		if err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		b, err := r.bytes(n)
		if err != nil {
			return err
		}
		// The command aliases the segment buffer, which replay never
		// writes to; replayDir copies the commands still pending once
		// every segment is scanned, so a restart allocates one string
		// per unfinished job rather than one per job ever submitted.
		var cmd string
		if len(b) > 0 {
			cmd = unsafe.String(&b[0], len(b))
		}
		if st.intent(seq, ArgsDigest([]string{cmd})) {
			st.Pending[seq] = cmd
		}

	case recCancel:
		seq, err := r.seq("cancel")
		if err != nil {
			return err
		}
		if _, done := st.Completed[seq]; !done {
			st.Cancelled[seq] = true
		}
		st.Records++

	case recBatch:
		// A batch is a concatenation of self-delimiting intent and
		// completion payloads under one frame. Nested batches and
		// checkpoints are not legal sub-records.
		for r.off < len(r.b) {
			typ := r.b[r.off]
			r.off++
			switch typ {
			case recIntent:
				if err := st.applyIntent(r); err != nil {
					return err
				}
			case recCompletion:
				if err := st.applyCompletion(r); err != nil {
					return err
				}
			default:
				return fmt.Errorf("wal: unknown batch sub-record type %q", typ)
			}
		}

	case recCheckpoint:
		// A checkpoint is a full snapshot: it replaces the state
		// accumulated so far (older segments it subsumes may or may not
		// still exist on disk).
		nst := newState()
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > maxRecord {
			return fmt.Errorf("wal: checkpoint completed count %d out of range", n)
		}
		seq := 0
		for i := uint64(0); i < n; i++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			exit, err := r.zigzag()
			if err != nil {
				return err
			}
			digest, err := r.u64()
			if err != nil {
				return err
			}
			seq += int(d)
			if !seqInRange(uint64(seq)) {
				return fmt.Errorf("wal: checkpoint completed seq %d out of range", seq)
			}
			nst.Completed[seq] = int(exit)
			if digest != 0 {
				nst.Digests[seq] = digest
			}
		}
		n, err = r.uvarint()
		if err != nil {
			return err
		}
		if n > maxRecord {
			return fmt.Errorf("wal: checkpoint pending count %d out of range", n)
		}
		seq = 0
		for i := uint64(0); i < n; i++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			digest, err := r.u64()
			if err != nil {
				return err
			}
			seq += int(d)
			if !seqInRange(uint64(seq)) {
				return fmt.Errorf("wal: checkpoint pending seq %d out of range", seq)
			}
			nst.InFlight[seq] = true
			if digest != 0 {
				nst.Digests[seq] = digest
			}
		}
		st.Completed = nst.Completed
		st.InFlight = nst.InFlight
		st.Digests = nst.Digests
		st.watermark, st.folds = 0, nil
		st.Records++

	case recWatermark:
		return st.applyWatermark(r)

	default:
		return fmt.Errorf("wal: unknown record type %q", payload[0])
	}
	return nil
}

// applyIntent parses one intent payload body (type byte already
// consumed) and folds it into the state.
func (st *State) applyIntent(r *payloadReader) error {
	seq, err := r.seq("intent")
	if err != nil {
		return err
	}
	digest, err := r.u64()
	if err != nil {
		return err
	}
	st.intent(seq, digest)
	return nil
}

// intent folds an intent (or the intent half of a submit) into the
// state and reports whether seq is still without a completion.
func (st *State) intent(seq int, digest uint64) bool {
	st.Digests[seq] = digest
	st.Records++
	if _, done := st.Completed[seq]; done {
		return false
	}
	st.InFlight[seq] = true
	return true
}

// applyCompletion parses one completion payload body (type byte
// already consumed) and folds it into the state.
func (st *State) applyCompletion(r *payloadReader) error {
	seq, err := r.seq("completion")
	if err != nil {
		return err
	}
	exit, err := r.zigzag()
	if err != nil {
		return err
	}
	if _, err := r.uvarint(); err != nil { // runtime µs (not needed for resume)
		return err
	}
	hostLen, err := r.uvarint()
	if err != nil {
		return err
	}
	if _, err := r.bytes(hostLen); err != nil {
		return err
	}
	// Last completion wins: a resumed run's fresh outcome supersedes
	// the crashed run's record for the same seq.
	st.Completed[seq] = int(exit)
	delete(st.InFlight, seq)
	delete(st.Pending, seq)
	st.Records++
	return nil
}

// applyWatermark parses a watermark checkpoint body (type byte already
// consumed). Like a K record it replaces the state accumulated so far,
// except Pending, which the S frames written just before it carry. The
// folds expand into exit-0 completions; their digests stay in the
// folds, for Verifier.
func (st *State) applyWatermark(r *payloadReader) error {
	w, err := r.uvarint()
	if err != nil {
		return err
	}
	if w < 1 || w > math.MaxInt32+1 {
		return fmt.Errorf("wal: watermark %d out of range", w)
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	// A fold takes at least 10 bytes and an entry 2: a count the
	// payload cannot hold is corrupt, and must not size an allocation.
	if n > uint64(len(r.b)-r.off)/10 {
		return fmt.Errorf("wal: watermark fold count %d out of range", n)
	}
	nst := newState()
	folds := make([]fold, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return err
		}
		span, err := r.uvarint()
		if err != nil {
			return err
		}
		h, err := r.u64()
		if err != nil {
			return err
		}
		lo := prev + d
		if lo <= prev || span >= w || lo >= w-span {
			return fmt.Errorf("wal: watermark fold %d+%d out of order or past the watermark %d", lo, span, w)
		}
		prev = lo + span
		folds = append(folds, fold{lo: int(lo), hi: int(prev), h: h})
		for seq := int(lo); seq <= int(prev); seq++ {
			nst.Completed[seq] = 0
		}
	}
	n, err = r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(r.b)-r.off)/2 {
		return fmt.Errorf("wal: watermark entry count %d out of range", n)
	}
	prev = 0
	for i := uint64(0); i < n; i++ {
		d, err := r.uvarint()
		if err != nil {
			return err
		}
		b, err := r.bytes(1)
		if err != nil {
			return err
		}
		flags := b[0]
		prev += d
		if d == 0 || !seqInRange(prev) || flags == 0 || flags >= fCancel<<1 {
			return fmt.Errorf("wal: watermark entry seq %d flags %#x invalid", prev, flags)
		}
		seq := int(prev)
		if flags&fDone != 0 {
			exit, err := r.zigzag()
			if err != nil {
				return err
			}
			nst.Completed[seq] = int(exit)
		} else if flags&fStarted != 0 {
			nst.InFlight[seq] = true
		}
		if flags&fDigest != 0 {
			digest, err := r.u64()
			if err != nil {
				return err
			}
			nst.Digests[seq] = digest
		}
		if flags&fCancel != 0 {
			nst.Cancelled[seq] = true
		}
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wal: %d trailing bytes after a watermark checkpoint", len(r.b)-r.off)
	}
	st.Completed, st.InFlight, st.Digests, st.Cancelled = nst.Completed, nst.InFlight, nst.Digests, nst.Cancelled
	st.watermark, st.folds = int(w), folds
	st.Records++
	return nil
}
