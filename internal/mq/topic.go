// Package mq implements the extension §IV-A suggests for production
// workflows: replacing the queue-file stage link with a centralized
// message-queue service ("such as Apache Kafka"). It provides a
// single-node, file-backed, topic-based queue with consumer groups and a
// TCP broker, plus an args.Source adapter so a parallel engine can
// consume a topic directly — the queue-driven generalization of
// `tail -f q.proc | parallel`.
//
// Scope: durability and at-least-once delivery on one node. It is a
// workflow stage link, not a replicated log.
package mq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// ErrOutOfRange reports a read past the end (or before the start) of a
// topic.
var ErrOutOfRange = errors.New("mq: sequence out of range")

// maxMessageSize bounds a single message (sanity cap, matches the
// broker's frame limit).
const maxMessageSize = 16 << 20

// Topic is an append-only message log on disk. The on-disk format is a
// sequence of [uint32 length][payload] frames; an in-memory index maps
// sequence numbers (0-based) to byte offsets. Reopening a topic replays
// the file to rebuild the index, truncating a torn trailing write.
type Topic struct {
	name string
	dir  string

	mu      sync.Mutex
	f       *os.File
	offsets []int64 // offsets[i] = byte offset of message i
	size    int64   // current file size (append position)
	waiters []chan struct{}
}

// OpenTopic opens (creating if needed) the named topic in dir.
func OpenTopic(dir, name string) (*Topic, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name+".log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	t := &Topic{name: name, dir: dir, f: f}
	if err := t.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\.") {
		return fmt.Errorf("mq: invalid topic name %q", name)
	}
	return nil
}

// replay scans the log file to rebuild the index. A torn final frame
// (crash mid-append) is truncated away.
func (t *Topic) replay() error {
	info, err := t.f.Stat()
	if err != nil {
		return err
	}
	total := info.Size()
	var off int64
	var hdr [4]byte
	for off < total {
		if _, err := t.f.ReadAt(hdr[:], off); err != nil {
			break // torn header
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > maxMessageSize || off+4+n > total {
			break // torn payload or corrupt length
		}
		t.offsets = append(t.offsets, off)
		off += 4 + n
	}
	if off < total {
		if err := t.f.Truncate(off); err != nil {
			return err
		}
	}
	t.size = off
	return nil
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Len returns the number of messages in the topic.
func (t *Topic) Len() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.offsets))
}

// Append adds a message and returns its sequence number.
func (t *Topic) Append(msg []byte) (int64, error) {
	if len(msg) > maxMessageSize {
		return 0, fmt.Errorf("mq: message of %d bytes exceeds cap", len(msg))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := t.f.WriteAt(hdr[:], t.size); err != nil {
		return 0, err
	}
	if _, err := t.f.WriteAt(msg, t.size+4); err != nil {
		return 0, err
	}
	seq := int64(len(t.offsets))
	t.offsets = append(t.offsets, t.size)
	t.size += 4 + int64(len(msg))
	// Wake long-polling consumers.
	for _, ch := range t.waiters {
		close(ch)
	}
	t.waiters = nil
	return seq, nil
}

// Read returns message seq.
func (t *Topic) Read(seq int64) ([]byte, error) {
	t.mu.Lock()
	if n := len(t.offsets); seq < 0 || seq >= int64(n) {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %d of %d", ErrOutOfRange, seq, n)
	}
	off := t.offsets[seq]
	t.mu.Unlock()

	var hdr [4]byte
	if _, err := t.f.ReadAt(hdr[:], off); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	buf := make([]byte, n)
	// ReadAt returns io.EOF even on a complete read that ends exactly at
	// the file's end — the last message always does. Tolerate EOF only
	// then: a short read (external truncation, torn replica copy) must
	// surface as an error, not as a silently zero-padded payload.
	if rn, err := t.f.ReadAt(buf, off+4); err != nil && !(err == io.EOF && rn == len(buf)) {
		return nil, fmt.Errorf("mq: topic %s message %d: read %d of %d payload bytes: %w",
			t.name, seq, rn, len(buf), err)
	}
	return buf, nil
}

// WaitFor returns a channel that closes when a message with sequence
// >= seq exists (immediately-closed if it already does). Used for
// long-poll consumption.
func (t *Topic) WaitFor(seq int64) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := make(chan struct{})
	if seq < int64(len(t.offsets)) {
		close(ch)
		return ch
	}
	t.waiters = append(t.waiters, ch)
	return ch
}

// Commit durably records a consumer group's next-to-read sequence.
func (t *Topic) Commit(group string, next int64) error {
	if err := validName(group); err != nil {
		return err
	}
	path := t.offsetPath(group)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatInt(next, 10)), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Committed returns the group's committed next-to-read sequence (0 when
// the group is new).
func (t *Topic) Committed(group string) (int64, error) {
	if err := validName(group); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(t.offsetPath(group))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64)
}

func (t *Topic) offsetPath(group string) string {
	return filepath.Join(t.dir, t.name+".offset."+group)
}

// Close releases the topic's file handle. Pending waiters are woken so
// long-polls terminate.
func (t *Topic) Close() error {
	t.mu.Lock()
	for _, ch := range t.waiters {
		close(ch)
	}
	t.waiters = nil
	t.mu.Unlock()
	return t.f.Close()
}
