// Package dist adds multi-host execution to the engine: a worker daemon
// (cmd/gopard) executes jobs sent over TCP, and Pool — a core.Runner —
// fans an engine's jobs out across workers. Because remote execution is
// just another Runner, every engine feature (slots, keep-order, retries,
// halt policies, joblogs, resume) composes with it unchanged.
//
// This is the library-native equivalent of GNU Parallel's --sshlogin
// (the paper instead shards input per node with a driver script —
// Listing 1 — which internal/cluster models; dist covers the
// direct-distribution alternative for clusters without a scheduler).
//
// There is one wire dialect, protocol v3 (see protocol_v3.go), and no
// negotiation: coordinator and worker ship from the same build. On
// accept the worker sends a hello frame (version, name, slot count);
// the coordinator checks it and refuses a peer that announces another
// version or greets with the pre-v3 JSON line, naming the address and
// what the peer sent. After the hello, one TCP connection multiplexes
// the worker's whole credit window (windowDepth jobs per slot, queued
// worker-side) and its cancels. A writer goroutine on each side
// coalesces queued jobs (or results) into one binary frame and flushes
// only when its queue goes idle, so a dispatch burst pays one syscall
// instead of one per job. Frames carry varint headers, length-delimited
// strings, a CRC32C trailer, optional deflate for large payloads, and
// cost zero steady-state allocations per job on the encode and decode
// paths. There is no authentication: like rsh-era sshlogin, it is for
// trusted networks (or localhost) only, and says so in cmd/gopard's
// usage.
package dist

import (
	"bufio"
	"fmt"
	"time"
)

// protocolVersion is the one version this build speaks; a hello that
// announces any other is refused. 4 is the v3 framing with request ids
// and the cancel frame: a worker from a build before them announces 3.
const protocolVersion = 4

// hello is the worker's greeting, the first frame on every connection.
type hello struct {
	Version int
	Name    string
	Slots   int
}

// request is one job execution request.
type request struct {
	// ID tags the request on its session: unique per connection (job
	// seqs are not — two jobd queues both have a seq 1), echoed by the
	// response and named by a cancel.
	ID      uint64
	Seq     int
	Slot    int
	Command string
	Args    []string
	Env     []string
	Stdin   []byte
	// TimeoutNS caps execution worker-side, timed from the job's start
	// there rather than from when the coordinator credited it.
	TimeoutNS int64
	// cancel, when set, makes this send-queue entry a cancel of those
	// request ids instead of a job: they leave in one cancel frame.
	cancel []uint64
}

// response reports one job's outcome.
type response struct {
	ID       uint64
	ExitCode int
	Err      string
	Stdout   []byte
	Stderr   []byte
	StartNS  int64
	EndNS    int64
	TimedOut bool
	// RecvNS is when the worker received the request (worker clock).
	// StartNS - RecvNS is the worker-side dispatch overhead, a
	// sub-segment of the coordinator's DispatchDelay that span
	// timelines attribute separately.
	RecvNS int64
	// SentBytes is how many stdin bytes the job actually consumed on
	// the worker — the joblog Send column.
	SentBytes int
}

// maxFrame bounds one frame. It protects both sides from a corrupt or
// hostile length prefix; legitimate frames (job argv plus captured
// output, capped at maxBatchItemsV3 entries) sit far below it.
const maxFrame = 16 << 20

func nsToTime(ns int64) time.Time { return time.Unix(0, ns) }

func checkHello(addr string, h hello) error {
	if h.Version != protocolVersion {
		return fmt.Errorf("dist: worker %s (%q) announces protocol version %d; this build speaks only %d",
			addr, h.Name, h.Version, protocolVersion)
	}
	if h.Slots < 1 {
		return fmt.Errorf("dist: worker %s (%q) advertises %d slots", addr, h.Name, h.Slots)
	}
	return nil
}

// refuseJSON reports a peer whose first byte opens a JSON object: a
// pre-v3 build, which greets with a JSON line. Without it the '{' would
// be read as the top byte of an out-of-range frame length.
func refuseJSON(br *bufio.Reader, peer string) error {
	if b, err := br.Peek(1); err == nil && b[0] == '{' {
		return fmt.Errorf("dist: %s speaks the pre-v3 JSON protocol", peer)
	}
	return nil
}

// readHello reads and checks the greeting of the worker at addr.
func readHello(br *bufio.Reader, addr string, st *WireStats) (hello, error) {
	if err := refuseJSON(br, "worker "+addr); err != nil {
		return hello{}, err
	}
	var buf []byte
	typ, body, err := readFrameV3(br, &buf, st)
	if err == nil && typ != frameHelloV3 {
		err = fmt.Errorf("frame type %d", typ)
	}
	var h hello
	if err == nil {
		h, err = decodeHelloV3(body)
	}
	if err != nil {
		return hello{}, fmt.Errorf("dist: worker %s sent no valid hello: %w", addr, err)
	}
	return h, checkHello(addr, h)
}
