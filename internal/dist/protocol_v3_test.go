package dist

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// startWorkerCfg is startWorker with a full WorkerConfig, for tests
// that set deflate thresholds or attach wire stats.
func startWorkerCfg(t *testing.T, cfg WorkerConfig) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go Serve(ctx, l, cfg)
	return l.Addr().String()
}

// TestPoolBatchedRoundTripV3 pushes enough concurrent jobs through one
// v3 session to force multi-item frames in both directions and checks
// every payload round-tripped intact onto the right seq — including
// binary stdin and a compressible payload large enough to cross the
// deflate threshold in both directions.
func TestPoolBatchedRoundTripV3(t *testing.T) {
	echo := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		out := fmt.Sprintf("%d:%s:", job.Seq, job.Args[0])
		// Copy, not alias: job.Stdin is only valid during Run (zero-copy
		// frame contract).
		return append([]byte(out), job.Stdin...), nil
	})
	addr := startWorker(t, "batchy3", 8, echo)
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	big := bytes.Repeat([]byte("compressible-payload-"), 1024) // ~21 KiB, well past the threshold
	binIn := []byte{0, 1, 2, 0xff, 0xfe, '\n', 0}
	stdinFor := func(seq int) []byte {
		switch seq % 3 {
		case 0:
			return big
		case 1:
			return binIn
		default:
			return []byte(fmt.Sprintf("in%d", seq))
		}
	}

	const jobs = 200
	results := make([]core.Result, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq := i + 1
			results[i] = pool.Run(context.Background(), &core.Job{
				Seq:   seq,
				Args:  []string{fmt.Sprintf("arg%d", seq)},
				Stdin: stdinFor(seq),
			})
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		seq := i + 1
		if !res.OK() {
			t.Fatalf("job %d failed: %+v", seq, res)
		}
		want := fmt.Sprintf("%d:arg%d:%s", seq, seq, stdinFor(seq))
		if string(res.Stdout) != want {
			t.Fatalf("job %d stdout mismatch: got %d bytes, want %d bytes (mux or codec corruption)",
				seq, len(res.Stdout), len(want))
		}
	}
	// The large payloads crossed the default threshold, so the
	// coordinator deflated stdin on the way out.
	if r := pool.Wire().DeflateRatio(); r <= 0 || r >= 1 {
		t.Fatalf("deflate ratio = %v, want in (0,1) for compressible stdin", r)
	}
	if pool.Wire().FramesSent() == 0 || pool.Wire().BytesReceived() == 0 {
		t.Fatalf("wire counters not accounted: %+v frames sent, %d bytes received",
			pool.Wire().FramesSent(), pool.Wire().BytesReceived())
	}
}

// TestV3DeflateDisabled pins the negative-threshold escape hatch: with
// compression off, large compressible payloads still round-trip and the
// deflate counters stay zero.
func TestV3DeflateDisabled(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 64<<10)
	echo := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		return append([]byte(nil), job.Stdin...), nil
	})
	wwire := &WireStats{}
	addr := startWorkerCfg(t, WorkerConfig{
		Name: "nodeflate", Slots: 2, Runner: echo, DeflateThreshold: -1, Wire: wwire,
	})
	pool, err := Dial([]WorkerSpec{{Addr: addr}}, WithDeflateThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res := pool.Run(context.Background(), &core.Job{Seq: 1, Stdin: payload})
	if !res.OK() || !bytes.Equal(res.Stdout, payload) {
		t.Fatalf("round trip failed: ok=%v len=%d", res.OK(), len(res.Stdout))
	}
	if r := pool.Wire().DeflateRatio(); r != 0 {
		t.Fatalf("coordinator deflate ratio = %v, want 0 when disabled", r)
	}
	if r := wwire.DeflateRatio(); r != 0 {
		t.Fatalf("worker deflate ratio = %v, want 0 when disabled", r)
	}
	if wwire.FramesReceived() == 0 || wwire.BytesSent() == 0 {
		t.Fatalf("worker wire counters not accounted: %+v", wwire)
	}
}

// TestV3GoldenWire freezes the v3 encoding of a known request so the
// wire format cannot drift silently: new fields or reordering must show
// up as a deliberate change to these bytes.
func TestV3GoldenWire(t *testing.T) {
	req := request{
		ID: 1, Seq: 7, Slot: 2, Command: "echo",
		Args: []string{"a", "bc"}, Env: []string{"K=V"}, Stdin: []byte("hi"),
	}
	wantBody := []byte{
		0x1,                     // frame type: jobs
		0x1,                     // count
		0x1, 0x7, 0x2, 0x0, 0x0, // id, seq, slot, timeout, flags
		0x4, 0x65, 0x63, 0x68, 0x6f, // "echo"
		0x2, 0x1, 0x61, 0x2, 0x62, 0x63, // args ["a","bc"]
		0x1, 0x3, 0x4b, 0x3d, 0x56, // env ["K=V"]
		0x2, 0x68, 0x69, // stdin "hi"
	}
	body := encodeJobsV3(nil, []request{req}, 0, nil)
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("encoded body drifted:\n got %#v\nwant %#v", body, wantBody)
	}

	// Full frame: length prefix + body + CRC32C trailer, byte-frozen.
	wantFrame := []byte{
		0x0, 0x0, 0x0, 0x1e, // length = 30 (1 type + 25 body + 4 crc)
		0x1, 0x1, 0x1, 0x7, 0x2, 0x0, 0x0, 0x4, 0x65, 0x63, 0x68, 0x6f,
		0x2, 0x1, 0x61, 0x2, 0x62, 0x63, 0x1, 0x3, 0x4b, 0x3d, 0x56,
		0x2, 0x68, 0x69,
		0xf4, 0x69, 0x57, 0x47, // crc32c
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrameV3(bw, body, nil); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if !bytes.Equal(buf.Bytes(), wantFrame) {
		t.Fatalf("framed bytes drifted:\n got %#v\nwant %#v", buf.Bytes(), wantFrame)
	}

	// And the frozen frame decodes back to the original request.
	br := bufio.NewReader(bytes.NewReader(wantFrame))
	var rbuf []byte
	typ, rbody, err := readFrameV3(br, &rbuf, nil)
	if err != nil || typ != frameJobsV3 {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	fr := getJobsFrame()
	defer putJobsFrame(fr)
	if err := decodeJobsV3(rbody, fr); err != nil {
		t.Fatal(err)
	}
	got := fr.reqs[0]
	if got.ID != 1 || got.Seq != 7 || got.Slot != 2 || got.Command != "echo" ||
		len(got.Args) != 2 || got.Args[0] != "a" || got.Args[1] != "bc" ||
		len(got.Env) != 1 || got.Env[0] != "K=V" || string(got.Stdin) != "hi" {
		t.Fatalf("decoded request mangled: %+v", got)
	}
}

// TestV3CRCDetectsCorruption flips each body byte of a valid frame and
// requires the reader to reject every mutation.
func TestV3CRCDetectsCorruption(t *testing.T) {
	body := encodeJobsV3(nil, []request{{Seq: 1, Command: "true", Stdin: []byte("abc")}}, 0, nil)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrameV3(bw, body, nil); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	frame := buf.Bytes()
	var rbuf []byte
	for i := 4; i < len(frame); i++ { // skip the length prefix (covered by bounds checks)
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, _, err := readFrameV3(bufio.NewReader(bytes.NewReader(mut)), &rbuf, nil); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

// TestWireCodecV3ZeroAlloc pins the tentpole's 0 allocs/job claim for
// the no-output job shape on both directions of the codec: encode jobs,
// zero-copy decode, encode results (with the per-frame telemetry
// snapshot), copy-out decode, and a cancel frame's encode and decode.
func TestWireCodecV3ZeroAlloc(t *testing.T) {
	reqs := []request{{ID: 1, Seq: 1, Slot: 3, Command: "doit --fast", Args: []string{"a", "b"}, Env: []string{"K=V"}}}
	resps := []response{{ID: 1, ExitCode: 0, StartNS: 100, EndNS: 200, RecvNS: 50, SentBytes: 0}}
	snap := telemetry.Snapshot{Worker: "w", Slots: 8, Started: 1, OK: 1, UnixNano: 300}
	cancels := []uint64{1, 2, 1 << 40}
	var jb, rb, cb []byte
	fr := getJobsFrame()
	defer putJobsFrame(fr)
	var dst []response
	var ids []uint64

	allocs := testing.AllocsPerRun(1000, func() {
		jb = encodeJobsV3(jb[:0], reqs, DefaultDeflateThreshold, nil)
		if err := decodeJobsV3(jb[1:], fr); err != nil {
			t.Fatal(err)
		}
		rb = encodeResultsV3(rb[:0], resps, snap, true, DefaultDeflateThreshold, nil)
		var err error
		dst, _, _, err = decodeResultsV3(rb[1:], dst, "w")
		if err != nil {
			t.Fatal(err)
		}
		cb = encodeCancelV3(cb[:0], cancels)
		if ids, err = decodeCancelV3(cb[1:], ids); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("v3 codec allocates %.1f/job on the steady-state path, want 0", allocs)
	}
	if fr.reqs[0].Command != "doit --fast" || dst[0].ID != 1 || len(ids) != 3 || ids[2] != 1<<40 {
		t.Fatalf("codec round trip mangled data: %+v / %+v / %v", fr.reqs[0], dst[0], ids)
	}
}

// TestV3FrameWriteReadZeroAlloc extends the pin to the framing layer:
// length prefix, CRC computation/verification and buffer reuse must not
// allocate either.
func TestV3FrameWriteReadZeroAlloc(t *testing.T) {
	body := encodeJobsV3(nil, []request{{Seq: 1, Command: "true"}}, 0, nil)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var rbuf []byte
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	allocs := testing.AllocsPerRun(1000, func() {
		buf.Reset()
		bw.Reset(&buf)
		if err := writeFrameV3(bw, body, nil); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		rd.Reset(buf.Bytes())
		br.Reset(rd)
		if _, _, err := readFrameV3(br, &rbuf, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("frame layer allocates %.1f/frame, want 0", allocs)
	}
}

// FuzzDecodeFrameV3 throws arbitrary bytes at the v3 frame reader and
// the three body decoders: they must return an error or data, never
// panic, loop, or over-allocate. Seeds: valid frames, a truncated
// frame, a corrupt CRC, a varint overflow, an oversize length prefix, a
// lying deflate header, hellos (valid, future version, zero slots), a
// pre-v3 JSON hello line, and cancel frames (valid, empty, a count that
// overruns the body, a truncated id).
func FuzzDecodeFrameV3(f *testing.F) {
	jb := encodeJobsV3(nil, []request{
		{ID: 1, Seq: 1, Command: "echo hi", Args: []string{"a"}, Env: []string{"K=V"}, Stdin: []byte("x")},
	}, 0, nil)
	f.Add(frameBytes(f, jb))
	big := bytes.Repeat([]byte("abcdefgh"), 1024)
	rb := encodeResultsV3(nil, []response{
		{ID: 9, ExitCode: 1, Err: "boom", Stdout: big, Stderr: []byte("e")},
	}, telemetry.Snapshot{Worker: "w", Slots: 2}, true, 16, nil)
	f.Add(frameBytes(f, rb))
	full := frameBytes(f, jb)
	f.Add(full[:len(full)-3]) // truncated
	bad := append([]byte(nil), full...)
	bad[7] ^= 0xff // corrupt CRC
	f.Add(bad)
	f.Add(frameBytes(f, append([]byte{frameJobsV3}, bytes.Repeat([]byte{0xff}, 10)...))) // varint overflow
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})                                       // oversize length prefix
	// Lying deflate header: flags say deflated but the bytes are not.
	lying := append([]byte{frameJobsV3, 1, 1, 1, 1, 0, flagStdinDeflated, 1, 'c', 0, 0}, 200, 1, 3, 'n', 'o', 't')
	f.Add(frameBytes(f, lying))
	f.Add(frameBytes(f, encodeHelloV3(nil, hello{Version: protocolVersion, Name: "w", Slots: 8})))
	f.Add(frameBytes(f, encodeHelloV3(nil, hello{Version: protocolVersion + 1, Name: "future", Slots: 1})))
	f.Add(frameBytes(f, encodeHelloV3(nil, hello{Version: protocolVersion, Name: "w", Slots: 0})))
	f.Add([]byte(`{"version":1,"name":"old","slots":4,"max_version":2}` + "\n"))
	f.Add(frameBytes(f, encodeCancelV3(nil, []uint64{1, 300, 1 << 63})))
	f.Add(frameBytes(f, encodeCancelV3(nil, nil)))
	f.Add(frameBytes(f, []byte{frameCancelV3, 5, 1, 2}))
	f.Add(frameBytes(f, []byte{frameCancelV3, 1, 0x80}))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		fr := getJobsFrame()
		defer putJobsFrame(fr)
		var dst []response
		var ids []uint64
		for i := 0; i < 4; i++ { // a stream may hold several frames
			typ, body, err := readFrameV3(br, &buf, nil)
			if err != nil {
				return
			}
			switch typ {
			case frameJobsV3:
				_ = decodeJobsV3(body, fr)
			case frameResultsV3:
				dst, _, _, _ = decodeResultsV3(body, dst, "w")
			case frameCancelV3:
				ids, _ = decodeCancelV3(body, ids)
			case frameHelloV3:
				if h, err := decodeHelloV3(body); err == nil {
					_ = checkHello("fuzz", h)
				}
			}
		}
	})
}

// TestPoolWireMetricsExposition checks the coordinator's /metrics
// surface: gopar_dist_* traffic counters appear alongside the existing
// pool series.
func TestPoolWireMetricsExposition(t *testing.T) {
	addr := startWorker(t, "wired", 2, echoRunner("w"))
	pool, err := Dial([]WorkerSpec{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for seq := 1; seq <= 5; seq++ {
		if res := pool.Run(context.Background(), &core.Job{Seq: seq, Args: []string{"x"}}); !res.OK() {
			t.Fatalf("seq %d: %+v", seq, res)
		}
	}
	reg := telemetry.NewRegistry()
	pool.RegisterMetrics(reg)
	var sb strings.Builder
	reg.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"gopar_dist_bytes_sent_total",
		"gopar_dist_bytes_received_total",
		"gopar_dist_frames_sent_total",
		"gopar_dist_frames_received_total",
		"gopar_dist_deflate_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
	// The counters must reflect the five round trips.
	if pool.Wire().FramesSent() < 1 || pool.Wire().FramesReceived() < 1 {
		t.Fatalf("frame counters empty: sent=%d recv=%d",
			pool.Wire().FramesSent(), pool.Wire().FramesReceived())
	}
	if pool.Wire().BytesSent() == 0 || pool.Wire().BytesReceived() == 0 {
		t.Fatalf("byte counters empty: sent=%d recv=%d",
			pool.Wire().BytesSent(), pool.Wire().BytesReceived())
	}
}

// BenchmarkWireLoopback measures raw pool.Run round-trips per second
// over loopback with a noop runner — the wire path alone, no engine.
func BenchmarkWireLoopback(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	noop := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		return nil, nil
	})
	// Deep slot pool: coalescing can only batch what is in flight, so
	// wire throughput scales with outstanding jobs until the CPU
	// saturates.
	go Serve(ctx, l, WorkerConfig{Name: "bench", Slots: 256, Runner: noop})
	pool, err := Dial([]WorkerSpec{{Addr: l.Addr().String()}})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()

	const drivers = 256
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < drivers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var job core.Job
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				job.Seq = int(n)
				if res := pool.Run(context.Background(), &job); res.Err != nil {
					b.Error(res.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/s")
}

// BenchmarkWireCodecV3 measures the pure codec round trip (encode jobs,
// zero-copy decode, encode results, copy-out decode); its 0 allocs/op
// is pinned by TestWireCodecV3ZeroAlloc.
func BenchmarkWireCodecV3(b *testing.B) {
	reqs := []request{{Seq: 1, Slot: 3, Command: "doit --fast", Args: []string{"a", "b"}, Env: []string{"K=V"}}}
	resps := []response{{ID: 1, ExitCode: 0, StartNS: 100, EndNS: 200, RecvNS: 50}}
	snap := telemetry.Snapshot{Worker: "w", Slots: 8, Started: 1, OK: 1, UnixNano: 300}
	var jb, rb []byte
	fr := getJobsFrame()
	defer putJobsFrame(fr)
	var dst []response
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jb = encodeJobsV3(jb[:0], reqs, DefaultDeflateThreshold, nil)
		if err := decodeJobsV3(jb[1:], fr); err != nil {
			b.Fatal(err)
		}
		rb = encodeResultsV3(rb[:0], resps, snap, true, DefaultDeflateThreshold, nil)
		var err error
		dst, _, _, err = decodeResultsV3(rb[1:], dst, "w")
		if err != nil {
			b.Fatal(err)
		}
	}
}
