package dist

// Protocol v3: length-prefixed binary frames with varint-encoded
// headers and string/byte fields, CRC32C-checked payloads, and a pooled
// codec so the steady-state encode→write and read→decode path touches
// zero per-job heap allocations. Sends coalesce: one frame per queued
// burst, flushed only when the queue goes idle.
//
// Frame layout (all multi-byte integers big-endian, varints as in
// encoding/binary):
//
//	u32  length          — bytes that follow (type + body + crc)
//	u8   type            — 1 jobs, 2 results, 3 hello
//	...  body            — see below
//	u32  crc32c          — Castagnoli CRC over type + body
//
// Hello body (worker → coordinator, once, first on the connection):
//
//	u8 version · str name · uvarint slots
//
// Jobs body:    uvarint count, then per request:
//
//	uvarint seq · uvarint slot · uvarint timeout_ns · u8 flags ·
//	str command · uvarint nargs, nargs×str · uvarint nenv, nenv×str ·
//	blob stdin (flags bit0: deflated)
//
// Results body: uvarint count, then per response:
//
//	uvarint seq · u8 flags (bit0 timed_out, bit1 stdout deflated,
//	bit2 stderr deflated) · varint exit_code (zigzag) ·
//	uvarint start_ns, end_ns, recv_ns, sent_bytes · str err ·
//	blob stdout · blob stderr
//
// followed by one u8 has_telemetry; when 1, the worker's counter
// snapshot (str worker · uvarint slots, busy, started, ok, failed,
// unix_nano) piggybacks once per frame instead of once per response.
//
// str is uvarint length + bytes. A raw blob is uvarint length + bytes;
// a deflated blob (large payloads above the sender's threshold)
// is uvarint raw_length · uvarint deflated_length · deflated bytes.
//
// Decoding is zero-copy where lifetimes allow it: the worker decodes
// request strings and stdin as aliases into the (pooled, refcounted)
// frame buffer, valid until every job from the frame finishes; the
// coordinator copies result payloads out (they outlive the frame in
// core.Result) but pays nothing for the empty-output common case.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/telemetry"
)

const (
	frameJobsV3    = 1
	frameResultsV3 = 2
	frameHelloV3   = 3

	flagStdinDeflated  = 1 << 0 // request flags
	flagTimedOut       = 1 << 0 // response flags
	flagStdoutDeflated = 1 << 1
	flagStderrDeflated = 1 << 2
)

// DefaultDeflateThreshold is the payload size above which v3 tries
// deflate when no explicit threshold is configured. Small payloads are
// cheaper to ship raw than to compress; 4 KiB is past the syscall
// amortization the batcher already provides.
const DefaultDeflateThreshold = 4 << 10

// maxBatchItemsV3 caps how many messages one binary frame coalesces.
// Deeper than v2's cap: binary items are a few dozen bytes, so even a
// full batch stays far under maxFrame, and on a busy pipe deeper
// coalescing is what turns per-job syscalls into per-frame ones.
const maxBatchItemsV3 = 512

// v3BufSize sizes the bufio reader/writer wrapped around a v3
// connection. Large enough that a full coalesced frame round-trips in
// one read and one write syscall.
const v3BufSize = 256 << 10

var crc32cTable = crc32.MakeTable(crc32.Castagnoli)

var (
	errBadCRC          = errors.New("dist: v3 frame CRC mismatch")
	errCorruptFrame    = errors.New("dist: corrupt v3 frame")
	errUnexpectedFrame = errors.New("dist: unexpected v3 frame type")
)

// --- pooled scratch buffers (GetBytes/PutBytes idiom) -------------------

// scratch is a pooled reusable byte buffer. Pointer-wrapped so Put
// never boxes a slice header into an interface allocation.
type scratch struct{ b []byte }

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// resizeBytes returns a slice of exactly n bytes, reusing b's capacity
// when possible.
func resizeBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// b2s aliases a byte slice as a string without copying. The caller owns
// the lifetime contract: the string is only valid while the backing
// buffer is not recycled, which the refcounted jobsFrame enforces.
func b2s(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// --- wire telemetry -----------------------------------------------------

// WireStats counts framed-protocol traffic. One instance aggregates a
// whole pool or worker; counters are monotonic and safe for concurrent
// use.
type WireStats struct {
	bytesSent, bytesRecv   atomic.Uint64
	framesSent, framesRecv atomic.Uint64
	// rawBytes/deflatedBytes total the pre- and post-compression sizes
	// of every field that was actually shipped deflated, so their ratio
	// is the achieved compression factor.
	rawBytes, deflatedBytes atomic.Uint64
}

func (s *WireStats) BytesSent() uint64     { return s.bytesSent.Load() }
func (s *WireStats) BytesReceived() uint64 { return s.bytesRecv.Load() }
func (s *WireStats) FramesSent() uint64    { return s.framesSent.Load() }
func (s *WireStats) FramesReceived() uint64 {
	return s.framesRecv.Load()
}

// DeflateRatio reports deflated/raw bytes across all compressed fields
// (0 when nothing has been compressed yet).
func (s *WireStats) DeflateRatio() float64 {
	raw := s.rawBytes.Load()
	if raw == 0 {
		return 0
	}
	return float64(s.deflatedBytes.Load()) / float64(raw)
}

// Register exposes the wire counters on reg under prefix ("gopar_dist"
// on the coordinator, "gopard_dist" on a worker daemon). Frames and
// bytes are counters (rate() gives frames/s and bytes/s); the deflate
// ratio is a gauge.
func (s *WireStats) Register(reg *telemetry.Registry, prefix string) {
	cf := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.CounterFunc(prefix+"_bytes_sent_total", "Framed wire bytes sent.", cf(&s.bytesSent))
	reg.CounterFunc(prefix+"_bytes_received_total", "Framed wire bytes received.", cf(&s.bytesRecv))
	reg.CounterFunc(prefix+"_frames_sent_total", "Wire frames sent.", cf(&s.framesSent))
	reg.CounterFunc(prefix+"_frames_received_total", "Wire frames received.", cf(&s.framesRecv))
	reg.CounterFunc(prefix+"_deflate_raw_bytes_total", "Pre-compression size of deflated payload fields.", cf(&s.rawBytes))
	reg.CounterFunc(prefix+"_deflate_bytes_total", "Post-compression size of deflated payload fields.", cf(&s.deflatedBytes))
	reg.GaugeFunc(prefix+"_deflate_ratio", "Deflated/raw byte ratio across compressed fields (0 = none yet).",
		s.DeflateRatio)
}

// --- deflate ------------------------------------------------------------

var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

var flateReaderPool = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// appendSink adapts append-into-slice to io.Writer for flate.
type appendSink struct{ b []byte }

func (w *appendSink) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// appendDeflate compresses src and appends the deflate stream to b.
func appendDeflate(b, src []byte) ([]byte, error) {
	w := flateWriterPool.Get().(*flate.Writer)
	sink := &appendSink{b: b}
	w.Reset(sink)
	if _, err := w.Write(src); err != nil {
		flateWriterPool.Put(w)
		return b, err
	}
	if err := w.Close(); err != nil {
		flateWriterPool.Put(w)
		return b, err
	}
	flateWriterPool.Put(w)
	return sink.b, nil
}

// inflateInto decompresses src into dst (whose length is the expected
// raw size, already bounds-checked by the decoder).
func inflateInto(dst, src []byte) error {
	r := flateReaderPool.Get().(io.ReadCloser)
	defer flateReaderPool.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(src), nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(r, dst); err != nil {
		return err
	}
	return nil
}

// --- frame I/O ----------------------------------------------------------

// writeFrameV3 emits one length-prefixed, CRC-trailed frame. body must
// start with the frame type byte. No flush: the caller owns the
// flush-on-idle batching discipline.
func writeFrameV3(bw *bufio.Writer, body []byte, st *WireStats) error {
	n := len(body) + 4
	if n > maxFrame {
		return fmt.Errorf("dist: v3 frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	// Byte-at-a-time through bufio's concrete WriteByte: a local [4]byte
	// passed to Write would escape through the underlying io.Writer
	// interface and cost a heap allocation per frame.
	if err := writeU32(bw, uint32(n)); err != nil {
		return err
	}
	if _, err := bw.Write(body); err != nil {
		return err
	}
	if err := writeU32(bw, crc32.Checksum(body, crc32cTable)); err != nil {
		return err
	}
	if st != nil {
		st.bytesSent.Add(uint64(n) + 4)
		st.framesSent.Add(1)
	}
	return nil
}

func writeU32(bw *bufio.Writer, v uint32) error {
	bw.WriteByte(byte(v >> 24))
	bw.WriteByte(byte(v >> 16))
	bw.WriteByte(byte(v >> 8))
	return bw.WriteByte(byte(v))
}

// readU32 reads a big-endian u32 via bufio's concrete ReadByte, for the
// same escape-analysis reason as writeU32.
func readU32(br *bufio.Reader) (uint32, error) {
	var v uint32
	for i := 0; i < 4; i++ {
		c, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v = v<<8 | uint32(c)
	}
	return v, nil
}

// readFrameV3 reads one frame into *buf (resized in place, so the
// caller's buffer is reused across frames), verifies the CRC, and
// returns the frame type and the body slice aliasing *buf.
func readFrameV3(br *bufio.Reader, buf *[]byte, st *WireStats) (byte, []byte, error) {
	n, err := readU32(br)
	if err != nil {
		return 0, nil, err
	}
	if n < 5 || n > maxFrame {
		return 0, nil, fmt.Errorf("dist: v3 frame of %d bytes outside [5, %d]", n, maxFrame)
	}
	*buf = resizeBytes(*buf, int(n))
	b := *buf
	if _, err := io.ReadFull(br, b); err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(b[:n-4], crc32cTable) != binary.BigEndian.Uint32(b[n-4:]) {
		return 0, nil, errBadCRC
	}
	if st != nil {
		st.bytesRecv.Add(uint64(n) + 4)
		st.framesRecv.Add(1)
	}
	return b[0], b[1 : n-4], nil
}

// --- encoding -----------------------------------------------------------

func appendStrV3(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBlobV3 appends p raw, or deflated when it clears deflateMin AND
// actually shrinks. Reports whether the deflated form was used (the
// caller records it in the message's flags byte).
func appendBlobV3(b, p []byte, deflateMin int, st *WireStats) ([]byte, bool) {
	if deflateMin > 0 && len(p) >= deflateMin {
		s := getScratch()
		comp, err := appendDeflate(s.b[:0], p)
		s.b = comp[:0]
		if err == nil && len(comp) < len(p) {
			b = binary.AppendUvarint(b, uint64(len(p)))
			b = binary.AppendUvarint(b, uint64(len(comp)))
			b = append(b, comp...)
			if st != nil {
				st.rawBytes.Add(uint64(len(p)))
				st.deflatedBytes.Add(uint64(len(comp)))
			}
			putScratch(s)
			return b, true
		}
		putScratch(s)
	}
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...), false
}

func appendRequestV3(b []byte, req *request, deflateMin int, st *WireStats) []byte {
	b = binary.AppendUvarint(b, uint64(req.Seq))
	b = binary.AppendUvarint(b, uint64(req.Slot))
	b = binary.AppendUvarint(b, uint64(req.TimeoutNS))
	flagAt := len(b)
	b = append(b, 0)
	b = appendStrV3(b, req.Command)
	b = binary.AppendUvarint(b, uint64(len(req.Args)))
	for _, a := range req.Args {
		b = appendStrV3(b, a)
	}
	b = binary.AppendUvarint(b, uint64(len(req.Env)))
	for _, e := range req.Env {
		b = appendStrV3(b, e)
	}
	var deflated bool
	b, deflated = appendBlobV3(b, req.Stdin, deflateMin, st)
	if deflated {
		b[flagAt] |= flagStdinDeflated
	}
	return b
}

func appendResponseV3(b []byte, resp *response, deflateMin int, st *WireStats) []byte {
	b = binary.AppendUvarint(b, uint64(resp.Seq))
	flagAt := len(b)
	var flags byte
	if resp.TimedOut {
		flags |= flagTimedOut
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(resp.ExitCode))
	b = binary.AppendUvarint(b, uint64(resp.StartNS))
	b = binary.AppendUvarint(b, uint64(resp.EndNS))
	b = binary.AppendUvarint(b, uint64(resp.RecvNS))
	b = binary.AppendUvarint(b, uint64(resp.SentBytes))
	b = appendStrV3(b, resp.Err)
	var deflated bool
	b, deflated = appendBlobV3(b, resp.Stdout, deflateMin, st)
	if deflated {
		b[flagAt] |= flagStdoutDeflated
	}
	b, deflated = appendBlobV3(b, resp.Stderr, deflateMin, st)
	if deflated {
		b[flagAt] |= flagStderrDeflated
	}
	return b
}

// encodeJobsV3 appends a whole jobs-frame body (type byte included)
// into b.
func encodeJobsV3(b []byte, reqs []request, deflateMin int, st *WireStats) []byte {
	b = append(b, frameJobsV3)
	b = binary.AppendUvarint(b, uint64(len(reqs)))
	for i := range reqs {
		b = appendRequestV3(b, &reqs[i], deflateMin, st)
	}
	return b
}

// encodeResultsV3 appends a whole results-frame body into b, with the
// worker's telemetry snapshot piggybacked once per frame (hasSnap).
func encodeResultsV3(b []byte, resps []response, snap telemetry.Snapshot, hasSnap bool, deflateMin int, st *WireStats) []byte {
	b = append(b, frameResultsV3)
	b = binary.AppendUvarint(b, uint64(len(resps)))
	for i := range resps {
		b = appendResponseV3(b, &resps[i], deflateMin, st)
	}
	if hasSnap {
		b = append(b, 1)
		b = appendStrV3(b, snap.Worker)
		b = binary.AppendUvarint(b, uint64(snap.Slots))
		b = binary.AppendUvarint(b, uint64(snap.Busy))
		b = binary.AppendUvarint(b, uint64(snap.Started))
		b = binary.AppendUvarint(b, uint64(snap.OK))
		b = binary.AppendUvarint(b, uint64(snap.Failed))
		b = binary.AppendUvarint(b, uint64(snap.UnixNano))
	} else {
		b = append(b, 0)
	}
	return b
}

// encodeHelloV3 appends a whole hello-frame body into b.
func encodeHelloV3(b []byte, h hello) []byte {
	b = append(b, frameHelloV3, byte(h.Version))
	b = appendStrV3(b, h.Name)
	return binary.AppendUvarint(b, uint64(h.Slots))
}

// --- decoding -----------------------------------------------------------

// v3dec is a bounds-checked cursor over one frame body with a sticky
// validity flag: any truncation, varint overflow, or oversize count
// flips ok and every later read returns zero values, so decode loops
// need a single error check at the end.
type v3dec struct {
	b   []byte
	off int
	ok  bool
}

func (d *v3dec) uvarint() uint64 {
	if !d.ok {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.off += n
	return v
}

func (d *v3dec) varint() int64 {
	if !d.ok {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.off += n
	return v
}

// count reads an element count and rejects values that could not
// possibly fit in the remaining bytes (every element costs at least one
// byte), so a corrupt count cannot drive huge slice growth.
func (d *v3dec) count() int {
	v := d.uvarint()
	if !d.ok || v > uint64(len(d.b)-d.off) {
		d.ok = false
		return 0
	}
	return int(v)
}

func (d *v3dec) u8() byte {
	if !d.ok || d.off >= len(d.b) {
		d.ok = false
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// take returns n bytes aliasing the frame buffer (zero-copy).
func (d *v3dec) take(n int) []byte {
	if !d.ok || n < 0 || n > len(d.b)-d.off {
		d.ok = false
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// strZC decodes a string aliasing the frame buffer.
func (d *v3dec) strZC() string { return b2s(d.take(int(d.uvarint()))) }

// strCopy decodes a string copied out of the frame (for values that
// outlive it). Empty strings cost nothing.
func (d *v3dec) strCopy() string {
	p := d.take(int(d.uvarint()))
	if len(p) == 0 {
		return ""
	}
	return string(p)
}

// blobZC decodes a blob zero-copy; a deflated blob is inflated into a
// pooled buffer appended to extra (released with the frame).
func (d *v3dec) blobZC(deflated bool, extra *[]*scratch) []byte {
	if !deflated {
		return d.take(int(d.uvarint()))
	}
	raw := d.uvarint()
	comp := d.take(int(d.uvarint()))
	if !d.ok || raw > maxFrame {
		d.ok = false
		return nil
	}
	s := getScratch()
	s.b = resizeBytes(s.b, int(raw))
	if err := inflateInto(s.b, comp); err != nil {
		putScratch(s)
		d.ok = false
		return nil
	}
	*extra = append(*extra, s)
	return s.b
}

// blobCopy decodes a blob into fresh memory (coordinator side, where
// results outlive the frame). Empty blobs decode to nil without
// allocating.
func (d *v3dec) blobCopy(deflated bool) []byte {
	if !deflated {
		p := d.take(int(d.uvarint()))
		if len(p) == 0 {
			return nil
		}
		return append([]byte(nil), p...)
	}
	raw := d.uvarint()
	comp := d.take(int(d.uvarint()))
	if !d.ok || raw > maxFrame {
		d.ok = false
		return nil
	}
	out := make([]byte, raw)
	if err := inflateInto(out, comp); err != nil {
		d.ok = false
		return nil
	}
	return out
}

// jobsFrame is one decoded jobs frame on the worker: the raw body the
// requests alias, the decoded requests, and any inflate buffers. A
// refcount (one per job) returns everything to the pools once the last
// job from the frame completes — the zero-copy lifetime contract.
type jobsFrame struct {
	buf    []byte // raw frame (requests alias its body)
	reqs   []request
	extra  []*scratch
	recvNS int64
	refs   atomic.Int32
}

var jobsFramePool = sync.Pool{New: func() any { return &jobsFrame{} }}

func getJobsFrame() *jobsFrame { return jobsFramePool.Get().(*jobsFrame) }

func putJobsFrame(fr *jobsFrame) {
	for _, s := range fr.extra {
		putScratch(s)
	}
	fr.extra = fr.extra[:0]
	fr.reqs = fr.reqs[:0]
	jobsFramePool.Put(fr)
}

// release drops one job's reference; the last reference recycles the
// frame.
func (fr *jobsFrame) release() {
	if fr.refs.Add(-1) == 0 {
		putJobsFrame(fr)
	}
}

// decodeJobsV3 decodes a jobs-frame body into fr.reqs (capacity reused
// across frames). Strings and stdin alias fr.buf.
func decodeJobsV3(body []byte, fr *jobsFrame) error {
	d := v3dec{b: body, ok: true}
	n := d.count()
	reqs := fr.reqs[:0]
	for i := 0; i < n && d.ok; i++ {
		if len(reqs) < cap(reqs) {
			reqs = reqs[:len(reqs)+1]
		} else {
			reqs = append(reqs, request{})
		}
		req := &reqs[len(reqs)-1]
		req.Seq = int(d.uvarint())
		req.Slot = int(d.uvarint())
		req.TimeoutNS = int64(d.uvarint())
		flags := d.u8()
		req.Command = d.strZC()
		args := req.Args[:0]
		for j, na := 0, d.count(); j < na && d.ok; j++ {
			args = append(args, d.strZC())
		}
		req.Args = args
		env := req.Env[:0]
		for j, ne := 0, d.count(); j < ne && d.ok; j++ {
			env = append(env, d.strZC())
		}
		req.Env = env
		req.Stdin = d.blobZC(flags&flagStdinDeflated != 0, &fr.extra)
	}
	fr.reqs = reqs
	if !d.ok || d.off != len(body) {
		return errCorruptFrame
	}
	return nil
}

// decodeResultsV3 decodes a results-frame body into dst (capacity
// reused). Payloads and error strings are copied out — they outlive
// the frame inside core.Result — but empty ones, the fast-path shape,
// allocate nothing. sessName is the worker name the session already
// holds; the piggybacked snapshot reuses it instead of allocating when
// the bytes match (they always do — a session's worker never renames).
func decodeResultsV3(body []byte, dst []response, sessName string) ([]response, telemetry.Snapshot, bool, error) {
	var snap telemetry.Snapshot
	d := v3dec{b: body, ok: true}
	n := d.count()
	resps := dst[:0]
	for i := 0; i < n && d.ok; i++ {
		if len(resps) < cap(resps) {
			resps = resps[:len(resps)+1]
		} else {
			resps = append(resps, response{})
		}
		r := &resps[len(resps)-1]
		r.Seq = int(d.uvarint())
		flags := d.u8()
		r.ExitCode = int(d.varint())
		r.TimedOut = flags&flagTimedOut != 0
		r.StartNS = int64(d.uvarint())
		r.EndNS = int64(d.uvarint())
		r.RecvNS = int64(d.uvarint())
		r.SentBytes = int(d.uvarint())
		r.Err = d.strCopy()
		r.Stdout = d.blobCopy(flags&flagStdoutDeflated != 0)
		r.Stderr = d.blobCopy(flags&flagStderrDeflated != 0)
	}
	hasSnap := false
	if d.u8() == 1 {
		nameB := d.take(int(d.uvarint()))
		if b2s(nameB) == sessName {
			snap.Worker = sessName
		} else {
			snap.Worker = string(nameB)
		}
		snap.Slots = int(d.uvarint())
		snap.Busy = int(d.uvarint())
		snap.Started = int64(d.uvarint())
		snap.OK = int64(d.uvarint())
		snap.Failed = int64(d.uvarint())
		snap.UnixNano = int64(d.uvarint())
		hasSnap = d.ok
	}
	if !d.ok || d.off != len(body) {
		return resps, snap, false, errCorruptFrame
	}
	return resps, snap, hasSnap, nil
}

// decodeHelloV3 decodes a hello-frame body; checkHello judges it.
func decodeHelloV3(body []byte) (hello, error) {
	d := v3dec{b: body, ok: true}
	h := hello{Version: int(d.u8()), Name: d.strCopy(), Slots: int(d.uvarint())}
	if !d.ok || d.off != len(body) {
		return hello{}, errCorruptFrame
	}
	return h, nil
}

// --- send loops ---------------------------------------------------------

// drainV3 greedily moves queued messages into items (up to
// maxBatchItemsV3). When the queue runs dry on a shallow batch it
// yields the processor once and tries again: producers that are
// runnable-but-not-running (the common case on few cores) get to
// enqueue, turning many near-empty frames into one deep frame. One
// Gosched costs ~1µs on an idle system — noise next to the syscall it
// saves — and a lone message still departs on the second pass.
func drainV3[T any](ch <-chan T, items []T) []T {
	yielded := false
	for len(items) < maxBatchItemsV3 {
		select {
		case v, ok := <-ch:
			if !ok {
				return items
			}
			items = append(items, v)
			continue
		default:
		}
		if yielded || len(items) >= maxBatchItemsV3/4 {
			break
		}
		yielded = true
		runtime.Gosched()
	}
	return items
}

// v3JobsLoop is the coordinator's coalescing send loop: drain queued
// requests (up to maxBatchItemsV3), emit one binary frame, flush only
// when the queue goes idle. items and the frame buffer are reused
// across iterations, so the steady state allocates nothing.
func v3JobsLoop(bw *bufio.Writer, ch <-chan request, done <-chan struct{}, deflateMin int, st *WireStats) error {
	var items []request
	var buf []byte
	for {
		var first request
		var ok bool
		select {
		case first, ok = <-ch:
			if !ok {
				return bw.Flush()
			}
		case <-done:
			return nil
		}
		items = drainV3(ch, append(items[:0], first))
		buf = encodeJobsV3(buf[:0], items, deflateMin, st)
		if err := writeFrameV3(bw, buf, st); err != nil {
			return err
		}
		if len(ch) == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}

// v3ResultsLoop is the worker's coalescing send loop; it additionally
// piggybacks one telemetry snapshot per frame.
func v3ResultsLoop(bw *bufio.Writer, ch <-chan response, wt *WorkerTelemetry, deflateMin int, st *WireStats) error {
	var items []response
	var buf []byte
	for {
		first, ok := <-ch
		if !ok {
			return bw.Flush()
		}
		items = drainV3(ch, append(items[:0], first))
		var snap telemetry.Snapshot
		hasSnap := wt != nil
		if hasSnap {
			snap = wt.Snapshot()
		}
		buf = encodeResultsV3(buf[:0], items, snap, hasSnap, deflateMin, st)
		if err := writeFrameV3(bw, buf, st); err != nil {
			return err
		}
		if len(ch) == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}
