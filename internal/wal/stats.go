package wal

import "time"

// Stats is a point-in-time view of the log's write pipeline, built
// for introspection consumers (the flight recorder's snapshot source,
// debug endpoints). All fields are observational; none participate in
// replay or durability decisions.
type Stats struct {
	// Appended counts records accepted by the Append methods since
	// Open, whether or not they have reached the disk yet.
	Appended int64
	// Syncs counts completed fsyncs.
	Syncs int64
	// LastSync is the wall time of the most recent fsync (zero before
	// the first).
	LastSync time.Time
	// Staged counts records sitting in the async staging buffers,
	// waiting for the group-commit flusher. Always 0 for synchronous
	// policies.
	Staged int
	// SegIndex is the current segment number; SegBytes its size so far.
	SegIndex int
	SegBytes int64
}

// Stats reports the pipeline view. Safe to call from any goroutine at
// any time; it takes the log mutex briefly for the segment fields, so
// it belongs on sampling intervals, not hot paths.
func (l *Log) Stats() Stats {
	s := Stats{
		Appended: l.nAppended.Load(),
		Syncs:    l.nSyncs.Load(),
	}
	if ns := l.lastSyncNS.Load(); ns > 0 {
		s.LastSync = time.Unix(0, ns)
	}
	if l.async {
		l.intents.mu.Lock()
		s.Staged = len(l.intents.buf)
		l.intents.mu.Unlock()
		l.compls.mu.Lock()
		s.Staged += len(l.compls.buf)
		l.compls.mu.Unlock()
	}
	l.mu.Lock()
	s.SegIndex = l.segIdx
	s.SegBytes = l.segSize
	l.mu.Unlock()
	return s
}
