package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Handler returns the service's HTTP/JSON API:
//
//	POST   /v1/queues/{queue}/jobs       submit (single or batch)
//	GET    /v1/queues/{queue}/jobs       list jobs; ?watch=1 streams events
//	GET    /v1/queues/{queue}            one queue's stats
//	PUT    /v1/queues/{queue}            create / reconfigure a queue
//	GET    /v1/queues                    all queues' quota/backlog stats
//	GET    /v1/jobs/{queue}/{seq}        job status; ?wait=30s long-polls
//	DELETE /v1/jobs/{queue}/{seq}        cancel
//	GET    /metrics                      Prometheus text
//	GET    /healthz                      liveness
//
// Job IDs are "<queue>/<seq>", so the /v1/jobs/{queue}/{seq} routes
// are exactly GET|DELETE /v1/jobs/{id}. docs/SERVICE.md documents the
// wire shapes and durability semantics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queues/{queue}/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/queues/{queue}/jobs", s.handleJobsList)
	mux.HandleFunc("GET /v1/queues/{queue}", s.handleQueueGet)
	mux.HandleFunc("PUT /v1/queues/{queue}", s.handleQueuePut)
	mux.HandleFunc("GET /v1/queues", s.handleQueues)
	mux.HandleFunc("GET /v1/jobs/{queue}/{seq}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{queue}/{seq}", s.handleJobCancel)
	mux.Handle("GET /metrics", telemetry.Handler(s.reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// SubmitRequest is the POST /v1/queues/{q}/jobs body: one command or a
// batch (exactly one of the two).
type SubmitRequest struct {
	Command  string   `json:"command,omitempty"`
	Commands []string `json:"commands,omitempty"`
}

// SubmitResponse acks accepted jobs. A batch is accepted whole or not
// at all: on failure Seqs is empty and Error says why.
type SubmitResponse struct {
	Queue string   `json:"queue"`
	Seqs  []int    `json:"seqs"`
	IDs   []string `json:"ids"`
	Error string   `json:"error,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("jobd: bad submit body: %w", err))
		return
	}
	commands := req.Commands
	if req.Command != "" {
		if len(commands) > 0 {
			httpErr(w, http.StatusBadRequest, errors.New("jobd: set either command or commands, not both"))
			return
		}
		commands = []string{req.Command}
	}
	q, err := s.EnsureQueue(r.PathValue("queue"))
	if err != nil {
		writeErr(w, err)
		return
	}
	seqs, err := q.Submit(commands)
	resp := SubmitResponse{Queue: q.Name(), Seqs: seqs, IDs: make([]string, len(seqs))}
	for i, seq := range seqs {
		resp.IDs[i] = q.Name() + "/" + strconv.Itoa(seq)
	}
	if err != nil {
		resp.Error = err.Error()
		writeJSON(w, errStatus(err), resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleQueues(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"queues": s.Stats()})
}

func (s *Server) handleQueueGet(w http.ResponseWriter, r *http.Request) {
	q, err := s.Queue(r.PathValue("queue"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, q.stats())
}

func (s *Server) handleQueuePut(w http.ResponseWriter, r *http.Request) {
	var cfg QueueConfig
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
		httpErr(w, http.StatusBadRequest, fmt.Errorf("jobd: bad queue config: %w", err))
		return
	}
	q, err := s.ConfigureQueue(r.PathValue("queue"), cfg)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, q.stats())
}

func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	q, err := s.Queue(r.PathValue("queue"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if r.URL.Query().Get("watch") != "" {
		s.watch(w, r, q)
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, _ = strconv.Atoi(v)
	}
	jobs := q.Jobs(r.URL.Query().Get("state"), limit)
	writeJSON(w, http.StatusOK, map[string]any{"queue": q.Name(), "jobs": jobs})
}

// WatchEvent is one line of the ?watch=1 chunked JSONL stream: a
// lifecycle event off the queue's telemetry bus.
type WatchEvent struct {
	Type       string `json:"type"` // queued | started | retried | finished | killed
	ID         string `json:"id"`
	Seq        int    `json:"seq"`
	Slot       int    `json:"slot,omitempty"`
	OK         bool   `json:"ok,omitempty"`
	Exit       int    `json:"exit,omitempty"`
	DurationMS int64  `json:"duration_ms,omitempty"`
	Time       string `json:"time"`
}

// watch streams the queue's live events as chunked JSONL until the
// client goes away or the queue's bus closes (daemon shutdown). The
// subscription is bounded and lossy — a slow watcher drops events
// rather than stalling the dispatch pipeline (mq's long-poll idiom,
// inverted: the server pushes, the client's read is the poll).
func (s *Server) watch(w http.ResponseWriter, r *http.Request, q *queue) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpErr(w, http.StatusNotImplemented, errors.New("jobd: streaming unsupported"))
		return
	}
	sub, stop := q.Watch(4096)
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				return
			}
			we := WatchEvent{
				Type: ev.Type.String(),
				ID:   q.Name() + "/" + strconv.Itoa(ev.Seq),
				Seq:  ev.Seq,
				Slot: ev.Slot,
				OK:   ev.OK,
				Exit: ev.ExitCode,
				Time: ev.Time.UTC().Format(time.RFC3339Nano),
			}
			if ev.Type == core.EventFinished || ev.Type == core.EventKilled {
				we.DurationMS = ev.Duration.Milliseconds()
			}
			if err := enc.Encode(we); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) jobFromPath(r *http.Request) (*queue, int, error) {
	q, err := s.Queue(r.PathValue("queue"))
	if err != nil {
		return nil, 0, err
	}
	seq, err := strconv.Atoi(r.PathValue("seq"))
	if err != nil || seq < 1 {
		return nil, 0, fmt.Errorf("%w: bad job seq %q", ErrNotFound, r.PathValue("seq"))
	}
	return q, seq, nil
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	q, seq, err := s.jobFromPath(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var st JobStatus
	if v := r.URL.Query().Get("wait"); v != "" {
		d, perr := time.ParseDuration(v)
		if perr != nil || d < 0 {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("jobd: bad wait duration %q", v))
			return
		}
		st, err = q.Wait(r.Context(), seq, d)
	} else {
		st, err = q.Status(seq)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	q, seq, err := s.jobFromPath(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	st, err := q.Cancel(seq)
	if errors.Is(err, ErrAlreadyDone) {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrAlreadyDone):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeErr(w http.ResponseWriter, err error) {
	httpErr(w, errStatus(err), err)
}

func httpErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
