package jobd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func newAPIServer(t *testing.T, runner core.Runner, mut func(*Config)) (*Server, *Client) {
	t.Helper()
	s := newTestServer(t, t.TempDir(), runner, mut)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, NewClient(hs.URL, hs.Client())
}

func TestHTTPSubmitAndStatus(t *testing.T) {
	r := newCountRunner()
	_, c := newAPIServer(t, r, nil)
	ctx := context.Background()

	seqs, err := c.Submit(ctx, "web", "echo one")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("seqs = %v", seqs)
	}
	st, err := c.Status(ctx, "web", 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "ok" || st.ID != "web/1" || st.Queue != "web" {
		t.Fatalf("status = %+v", st)
	}
	if r.count("echo one") != 1 {
		t.Fatalf("command ran %d times", r.count("echo one"))
	}
}

func TestHTTPBatchSubmit(t *testing.T) {
	r := newCountRunner()
	_, c := newAPIServer(t, r, nil)
	ctx := context.Background()
	cmds := make([]string, 20)
	for i := range cmds {
		cmds[i] = fmt.Sprintf("job-%d", i)
	}
	// A batch with one empty command is rejected whole: no seq is
	// assigned and none of its commands runs.
	bad := append(append([]string{"first"}, cmds[:3]...), "", "last")
	if seqs, err := c.Submit(ctx, "batch", bad...); err == nil || len(seqs) != 0 {
		t.Fatalf("batch with an empty command = %v, %v; want rejected whole", seqs, err)
	}
	seqs, err := c.Submit(ctx, "batch", cmds...)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 20 || seqs[0] != 1 {
		t.Fatalf("got seqs %v, want 1..20", seqs)
	}
	for _, seq := range seqs {
		st, err := c.Status(ctx, "batch", seq, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "ok" {
			t.Fatalf("job %d state %s", seq, st.State)
		}
	}
	if r.count("first") != 0 || r.count("last") != 0 || r.total() != 20 {
		t.Fatalf("rejected batch ran: first=%d last=%d total=%d", r.count("first"), r.count("last"), r.total())
	}
}

func TestHTTPQueueStatsAndConfigure(t *testing.T) {
	_, c := newAPIServer(t, newCountRunner(), nil)
	ctx := context.Background()

	qs, err := c.Configure(ctx, "tenant-a", QueueConfig{Quota: 2, Weight: 5})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Quota != 2 || qs.Weight != 5 {
		t.Fatalf("configured stats = %+v", qs)
	}
	if _, err := c.Submit(ctx, "tenant-b", "x"); err != nil {
		t.Fatal(err)
	}
	all, err := c.Queues(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Name != "tenant-a" || all[1].Name != "tenant-b" {
		t.Fatalf("queues = %+v", all)
	}
	one, err := c.QueueStats(ctx, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if one.Name != "tenant-a" || one.Weight != 5 {
		t.Fatalf("queue stats = %+v", one)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, c := newAPIServer(t, newCountRunner(), nil)
	ctx := context.Background()

	wantStatus := func(err error, status int) {
		t.Helper()
		var ae *apiError
		if !errors.As(err, &ae) || ae.Status != status {
			t.Fatalf("err = %v, want HTTP %d", err, status)
		}
	}
	_, err := c.Status(ctx, "ghost", 1, 0)
	wantStatus(err, http.StatusNotFound)
	_, err = c.QueueStats(ctx, "ghost")
	wantStatus(err, http.StatusNotFound)
	_, err = c.Cancel(ctx, "ghost", 1)
	wantStatus(err, http.StatusNotFound)

	if _, err := c.Submit(ctx, "real", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(ctx, "real", 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_, err = c.Status(ctx, "real", 99, 0)
	wantStatus(err, http.StatusNotFound)
	// Cancelling a finished job is a 409 conflict.
	_, err = c.Cancel(ctx, "real", 1)
	wantStatus(err, http.StatusConflict)
	// Bad queue names are rejected before touching disk.
	_, err = c.Submit(ctx, "no.dots", "x")
	if err == nil {
		t.Fatal("dotted queue name accepted")
	}
	// Empty submit body.
	_, err = c.Submit(ctx, "real")
	if err == nil {
		t.Fatal("empty submit accepted")
	}
}

func TestHTTPCancelRunning(t *testing.T) {
	gate := make(chan struct{})
	runner := core.FuncRunner(func(ctx context.Context, job *core.Job) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-gate:
			return nil, nil
		}
	})
	_, c := newAPIServer(t, runner, nil)
	defer close(gate)
	ctx := context.Background()
	seqs, err := c.Submit(ctx, "work", "sleeper")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is running, then cancel over the API.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Status(ctx, "work", seqs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := c.Cancel(ctx, "work", seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cancelled {
		t.Fatalf("cancel response = %+v", st)
	}
	st, err = c.Status(ctx, "work", seqs[0], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("final state %s, want cancelled", st.State)
	}
}

func TestHTTPJobsList(t *testing.T) {
	r := newCountRunner()
	r.fail = func(cmd string) bool { return cmd == "bad" }
	_, c := newAPIServer(t, r, nil)
	ctx := context.Background()
	seqs, err := c.Submit(ctx, "mix", "good1", "bad", "good2")
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if _, err := c.Status(ctx, "mix", seq, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	all, err := c.Jobs(ctx, "mix", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d jobs, want 3", len(all))
	}
	if all[0].Seq != 3 {
		t.Fatalf("jobs not newest-first: %+v", all)
	}
	failed, err := c.Jobs(ctx, "mix", "failed", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0].Seq != 2 {
		t.Fatalf("failed filter = %+v", failed)
	}
	limited, err := c.Jobs(ctx, "mix", "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 {
		t.Fatalf("limit ignored: %d jobs", len(limited))
	}
}

// TestHTTPWatch streams a queue's lifecycle events over the chunked
// JSONL endpoint while jobs run.
func TestHTTPWatch(t *testing.T) {
	_, c := newAPIServer(t, newCountRunner(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	if _, err := c.Configure(ctx, "live", QueueConfig{Quota: 1, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	events := make(chan WatchEvent, 256)
	watchErr := make(chan error, 1)
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go func() {
		watchErr <- c.Watch(watchCtx, "live", func(ev WatchEvent) error {
			events <- ev
			return nil
		})
	}()

	// The watch request attaches asynchronously; submit warmup jobs
	// until its first event arrives, then every later event is captured.
	attached := false
	for i := 0; i < 100 && !attached; i++ {
		if _, err := c.Submit(ctx, "live", fmt.Sprintf("warmup-%d", i)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-events:
			attached = true
		case <-time.After(100 * time.Millisecond):
		}
	}
	if !attached {
		t.Fatal("watch stream never delivered an event")
	}

	probeSeqs, err := c.Submit(ctx, "live", "probe")
	if err != nil {
		t.Fatal(err)
	}
	probeID := fmt.Sprintf("live/%d", probeSeqs[0])
	var seen []string
	deadline := time.After(10 * time.Second)
	for {
		var done bool
		select {
		case ev := <-events:
			if ev.ID != probeID {
				continue
			}
			seen = append(seen, ev.Type)
			done = ev.Type == "finished" || ev.Type == "killed"
		case <-deadline:
			t.Fatalf("no terminal event for %s; saw %v", probeID, seen)
		}
		if done {
			break
		}
	}
	joined := strings.Join(seen, ",")
	if !strings.Contains(joined, "started") || !strings.Contains(joined, "finished") {
		t.Fatalf("event stream = %v, want started..finished", seen)
	}
	stopWatch()
	select {
	case err := <-watchErr:
		if err != nil {
			t.Fatalf("watch returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not return after client cancel")
	}
}

// TestHTTPMetricsEndpoint: the jobd_* series are exported on /metrics.
func TestHTTPMetricsEndpoint(t *testing.T) {
	s, c := newAPIServer(t, newCountRunner(), nil)
	ctx := context.Background()
	if _, err := c.Submit(ctx, "m", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(ctx, "m", 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_ = s
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{
		`jobd_jobs_submitted_total{queue="m"} 1`,
		`jobd_jobs_completed_total{queue="m",outcome="ok"} 1`,
		"jobd_submit_to_dispatch_seconds",
		"jobd_queue_depth",
		"jobd_slots 4",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}
