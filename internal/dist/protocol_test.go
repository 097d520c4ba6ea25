package dist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// frameBytes returns body framed exactly as it travels on the wire.
func frameBytes(tb testing.TB, body []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrameV3(bw, body, nil); err != nil {
		tb.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes()
}

// roundTripFrame frames body and reads it back through the CRC check.
func roundTripFrame(tb testing.TB, body []byte) (byte, []byte) {
	tb.Helper()
	var buf []byte
	typ, got, err := readFrameV3(bufio.NewReader(bytes.NewReader(frameBytes(tb, body))), &buf, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return typ, got
}

func TestCheckHello(t *testing.T) {
	const addr = "10.0.0.5:7000"
	cases := []struct {
		h    hello
		want string // "" = accepted
	}{
		{hello{Version: protocolVersion, Name: "w", Slots: 1}, ""},
		{hello{Version: protocolVersion, Name: "w", Slots: 64}, ""},
		{hello{Version: 0, Name: "w", Slots: 1}, "protocol version 0"},
		{hello{Version: 1, Name: "w", Slots: 1}, "protocol version 1"},
		{hello{Version: protocolVersion + 1, Name: "w", Slots: 1}, "protocol version 4"},
		{hello{Version: protocolVersion, Name: "w", Slots: 0}, "advertises 0 slots"},
		{hello{Version: protocolVersion, Name: "w", Slots: -3}, "advertises -3 slots"},
	}
	for _, c := range cases {
		err := checkHello(addr, c.h)
		if c.want == "" {
			if err != nil {
				t.Errorf("checkHello(%+v) = %v, want accepted", c.h, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), addr) {
			t.Errorf("checkHello(%+v) = %v, want an error naming %s and %q", c.h, err, addr, c.want)
		}
	}
}

// TestProtocolGoldenRoundTrips: each message type survives a framed
// codec round trip field for field, the per-frame telemetry snapshot
// included.
func TestProtocolGoldenRoundTrips(t *testing.T) {
	req := request{
		Seq: 42, Slot: 3, Command: "echo hi", Args: []string{"a b", "c"},
		Env: []string{"K=V"}, Stdin: []byte("in\n"), TimeoutNS: 5e9,
	}
	resp := response{
		Seq: 42, ExitCode: 7, Err: "boom", Stdout: []byte("out"),
		Stderr: []byte("err"), StartNS: 100, EndNS: 200, TimedOut: true,
		RecvNS: 90, SentBytes: 3,
	}
	snap := telemetry.Snapshot{Worker: "w1", Slots: 8, Busy: 2, Started: 10, OK: 9, Failed: 1, UnixNano: 300}
	h := hello{Version: protocolVersion, Name: "n", Slots: 4}

	typ, body := roundTripFrame(t, encodeJobsV3(nil, []request{req}, 0, nil))
	fr := getJobsFrame()
	defer putJobsFrame(fr)
	if err := decodeJobsV3(body, fr); typ != frameJobsV3 || err != nil || len(fr.reqs) != 1 {
		t.Fatalf("jobs frame: typ=%d err=%v reqs=%d", typ, err, len(fr.reqs))
	}
	if !reflect.DeepEqual(fr.reqs[0], req) {
		t.Fatalf("request round trip:\ngot  %+v\nwant %+v", fr.reqs[0], req)
	}

	typ, body = roundTripFrame(t, encodeResultsV3(nil, []response{resp}, snap, true, 0, nil))
	resps, gotSnap, hasSnap, err := decodeResultsV3(body, nil, "w1")
	if typ != frameResultsV3 || err != nil || len(resps) != 1 || !hasSnap {
		t.Fatalf("results frame: typ=%d err=%v resps=%d snap=%v", typ, err, len(resps), hasSnap)
	}
	if !reflect.DeepEqual(resps[0], resp) {
		t.Fatalf("response round trip:\ngot  %+v\nwant %+v", resps[0], resp)
	}
	if gotSnap != snap {
		t.Fatalf("snapshot round trip: got %+v want %+v", gotSnap, snap)
	}

	typ, body = roundTripFrame(t, encodeHelloV3(nil, h))
	gotHello, err := decodeHelloV3(body)
	if typ != frameHelloV3 || err != nil || gotHello != h {
		t.Fatalf("hello round trip: typ=%d err=%v got %+v want %+v", typ, err, gotHello, h)
	}
}

// TestProtocolGoldenWire freezes the hello and results encodings (the
// jobs frame is frozen by TestV3GoldenWire). These literals are the
// compatibility contract: changing them is a protocol break, and the
// hello's version byte must then change with them.
func TestProtocolGoldenWire(t *testing.T) {
	wantHello := []byte{
		0x0, 0x0, 0x0, 0xa, // length = 10 (1 type + 5 body + 4 crc)
		0x3,             // frame type: hello
		0x3,             // version
		0x2, 0x77, 0x31, // name "w1"
		0x8,                    // slots
		0x6f, 0x84, 0x94, 0x30, // crc32c
	}
	if got := frameBytes(t, encodeHelloV3(nil, hello{Version: 3, Name: "w1", Slots: 8})); !bytes.Equal(got, wantHello) {
		t.Fatalf("hello frame drifted:\n got %#v\nwant %#v", got, wantHello)
	}

	resp := response{
		Seq: 5, ExitCode: -1, StartNS: 100, EndNS: 200, RecvNS: 90, SentBytes: 3,
		Err: "x", Stdout: []byte("o"), TimedOut: true,
	}
	wantResults := []byte{
		0x2,             // frame type: results
		0x1,             // count
		0x5,             // seq
		0x1,             // flags: timed_out
		0x1,             // exit_code -1 (zigzag)
		0x64, 0xc8, 0x1, // start_ns 100, end_ns 200
		0x5a, 0x3, // recv_ns 90, sent_bytes 3
		0x1, 0x78, // err "x"
		0x1, 0x6f, // stdout "o"
		0x0, // stderr ""
		0x0, // no telemetry snapshot
	}
	if got := encodeResultsV3(nil, []response{resp}, telemetry.Snapshot{}, false, 0, nil); !bytes.Equal(got, wantResults) {
		t.Fatalf("results body drifted:\n got %#v\nwant %#v", got, wantResults)
	}
}

// FuzzProtocolRoundTrip: any request and response survive a framed
// codec round trip, raw or deflated.
func FuzzProtocolRoundTrip(f *testing.F) {
	f.Add(1, 1, "echo {}", []byte("stdin"), int64(0), true)
	f.Add(0, 0, "", []byte(nil), int64(-1), false)
	f.Add(1<<30, 255, "cmd \x00 weird \n\t\"quotes\"", []byte{0xff, 0x00}, int64(1e18), true)
	f.Fuzz(func(t *testing.T, seq, slot int, command string, stdin []byte, timeout int64, deflate bool) {
		deflateMin := 0
		if deflate {
			deflateMin = 1
		}
		req := request{Seq: seq, Slot: slot, Command: command, Args: []string{command, ""},
			Env: []string{command}, Stdin: stdin, TimeoutNS: timeout}
		resp := response{Seq: seq, ExitCode: slot, Err: command, Stdout: stdin, Stderr: []byte(command),
			StartNS: timeout, EndNS: timeout + 1, RecvNS: timeout - 1, TimedOut: deflate, SentBytes: len(stdin)}
		snap := telemetry.Snapshot{Worker: command, Slots: slot, Started: int64(seq), UnixNano: timeout}

		_, body := roundTripFrame(t, encodeJobsV3(nil, []request{req}, deflateMin, nil))
		fr := getJobsFrame()
		defer putJobsFrame(fr)
		if err := decodeJobsV3(body, fr); err != nil || len(fr.reqs) != 1 {
			t.Fatalf("jobs decode: err=%v reqs=%d", err, len(fr.reqs))
		}
		got := fr.reqs[0]
		if got.Seq != req.Seq || got.Slot != req.Slot || got.Command != req.Command ||
			got.TimeoutNS != req.TimeoutNS || !reflect.DeepEqual(got.Args, req.Args) ||
			!reflect.DeepEqual(got.Env, req.Env) || !bytes.Equal(got.Stdin, req.Stdin) {
			t.Fatalf("request:\ngot  %+v\nwant %+v", got, req)
		}

		_, body = roundTripFrame(t, encodeResultsV3(nil, []response{resp}, snap, true, deflateMin, nil))
		resps, gotSnap, hasSnap, err := decodeResultsV3(body, nil, "w")
		if err != nil || len(resps) != 1 || !hasSnap || gotSnap != snap {
			t.Fatalf("results decode: err=%v resps=%d snap=%+v", err, len(resps), gotSnap)
		}
		r := resps[0]
		if len(resp.Stdout) == 0 {
			resp.Stdout = nil // empty blobs decode to nil
		}
		if len(resp.Stderr) == 0 {
			resp.Stderr = nil
		}
		if !reflect.DeepEqual(r, resp) {
			t.Fatalf("response:\ngot  %+v\nwant %+v", r, resp)
		}
	})
}

// TestFrameRoundTrip pins the framing layer: consecutive frames survive
// a write/read cycle byte-exactly, and the coordinator's send loop
// coalesces a queued burst into one frame.
func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{
		encodeJobsV3(nil, []request{{Seq: 1, Command: "a", Env: []string{"K=V"}}, {Seq: 2, Command: "b", Stdin: []byte{0, 1, 2}}}, 0, nil),
		encodeHelloV3(nil, hello{Version: protocolVersion, Name: "w", Slots: 2}),
	}
	var buf bytes.Buffer
	for _, b := range bodies {
		buf.Write(frameBytes(t, b))
	}
	br := bufio.NewReader(&buf)
	var rbuf []byte
	for i, want := range bodies {
		typ, body, err := readFrameV3(br, &rbuf, nil)
		if err != nil || typ != want[0] || !bytes.Equal(body, want[1:]) {
			t.Fatalf("frame %d: typ=%d err=%v body=%x, want %x", i, typ, err, body, want)
		}
	}

	// Coalescing: 50 queued requests leave as a single frame.
	buf.Reset()
	bw := bufio.NewWriter(&buf)
	ch := make(chan request, 64)
	for i := 0; i < 50; i++ {
		ch <- request{Seq: i}
	}
	close(ch)
	if err := v3JobsLoop(bw, ch, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	br = bufio.NewReader(&buf)
	typ, body, err := readFrameV3(br, &rbuf, nil)
	if err != nil || typ != frameJobsV3 {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	fr := getJobsFrame()
	defer putJobsFrame(fr)
	if err := decodeJobsV3(body, fr); err != nil || len(fr.reqs) != 50 {
		t.Fatalf("first frame carries %d jobs (err %v), want all 50 coalesced", len(fr.reqs), err)
	}
	if _, _, err := readFrameV3(br, &rbuf, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("after the coalesced burst: err=%v, want EOF", err)
	}
}

// TestFrameSizeLimit pins both directions of the 16 MiB frame cap: an
// oversized frame is never written, and an oversized length prefix is
// refused before any buffer is sized by it.
func TestFrameSizeLimit(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	if err := writeFrameV3(bw, make([]byte, maxFrame-3), nil); err == nil {
		t.Fatal("writeFrameV3 accepted a frame past maxFrame")
	}
	for _, hdr := range [][]byte{
		{0x01, 0x00, 0x00, 0x01}, // maxFrame + 1
		{0xff, 0xff, 0xff, 0xff},
		{0x00, 0x00, 0x00, 0x04}, // too short to hold type + crc
	} {
		var rbuf []byte
		_, _, err := readFrameV3(bufio.NewReader(bytes.NewReader(hdr)), &rbuf, nil)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("length prefix %x: err=%v, want out-of-range refusal", hdr, err)
		}
		if cap(rbuf) != 0 {
			t.Fatalf("length prefix %x sized a %d-byte buffer", hdr, cap(rbuf))
		}
	}
}
