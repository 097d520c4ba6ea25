package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// State is the replayed view of a run log: what a resumed run needs to
// decide, per job seq, between skip / re-run / reject.
type State struct {
	// Completed maps seq → exit status of the latest completion record.
	// Resume skips only exit-0 completions (State.CompletedOK), matching
	// GNU Parallel's --resume semantics for failed jobs.
	Completed map[int]int
	// InFlight holds seqs with an intent but no completion: jobs that
	// were handed to a slot (or were queued behind one) when the run
	// died. A resumed run re-runs each exactly once.
	InFlight map[int]bool
	// Digests maps seq → the args digest recorded at intent time, used
	// to reject resumes whose input set changed out from under the log.
	// A rotated log keeps single digests only from its watermark up and
	// for the exceptions below it; the ok runs below it are checked as
	// folds. Verifier checks both.
	Digests map[int]uint64
	// Pending maps seq → command for every submit record whose seq has
	// no completion: a job service's work still to run.
	Pending map[int]string
	// Cancelled holds seqs whose cancel record came before any
	// completion of the seq.
	Cancelled map[int]bool
	// Records counts logical records (intents, completions, submits,
	// cancels, checkpoints) successfully replayed; records inside a
	// batch frame count individually.
	Records int
	// TornTails counts segments whose tail was cut at the first
	// short/CRC-broken/undecodable record — the expected wound of a
	// crash mid-write.
	TornTails int
	// Segments is the number of segment files visited.
	Segments int

	// watermark and folds come from the newest watermark checkpoint:
	// every seq below watermark is terminal, and each fold covers a run
	// of ok seqs whose digests it hashes instead of Digests.
	watermark int
	folds     []fold
}

func newState() *State {
	return &State{
		Completed: map[int]int{},
		InFlight:  map[int]bool{},
		Digests:   map[int]uint64{},
		Pending:   map[int]string{},
		Cancelled: map[int]bool{},
	}
}

// LastSeq returns the highest seq an intent, submit or completion
// names, 0 for an empty log. A job service assigns seqs densely, so for
// its log this is the number of jobs ever accepted.
func (st *State) LastSeq() int {
	last := 0
	for seq := range st.Completed {
		last = max(last, seq)
	}
	for seq := range st.InFlight {
		last = max(last, seq)
	}
	return last
}

// CompletedOK returns the seqs whose latest completion has exit status
// 0 — the set a resumed run skips (core.Spec.ResumeFrom).
func (st *State) CompletedOK() map[int]bool {
	done := make(map[int]bool, len(st.Completed))
	for seq, exit := range st.Completed {
		if exit == 0 {
			done[seq] = true
		}
	}
	return done
}

// segment is one scanned segment file.
type segment struct {
	path  string
	index int
	size  int64
	// validLen is the byte offset after the last intact record (at
	// least headerSize for a well-formed header, 0 otherwise). Anything
	// beyond it is a torn tail.
	validLen int64
	torn     bool
}

// listSegments returns the directory's segment files in index order.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(e.Name(), segNameFmt, &idx); err != nil || segName(idx) != e.Name() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segment{path: filepath.Join(dir, e.Name()), index: idx, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

const segNameFmt = "%08d.wal"

func segName(idx int) string { return fmt.Sprintf(segNameFmt, idx) }

// scanSegment replays one segment file into st and fills in
// validLen/torn. An unreadable file is an error; corrupt contents are
// not — they end the segment at the last intact record.
func scanSegment(st *State, seg *segment) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return err
	}
	seg.size = int64(len(data))
	st.Segments++

	if len(data) == 0 {
		// A segment created but not yet headered (killed between create
		// and first write): empty is valid, not torn.
		seg.validLen = 0
		return nil
	}
	if len(data) < headerSize || string(data[:len(segMagic)]) != segMagic ||
		binary.LittleEndian.Uint32(data[len(segMagic):]) != segVersion {
		seg.validLen = 0
		seg.torn = true
		st.TornTails++
		return nil
	}

	off := headerSize
	for {
		if off == len(data) {
			seg.validLen = int64(off)
			return nil
		}
		if off+frameSize > len(data) {
			break // partial frame header
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecord || off+frameSize+int(n) > len(data) {
			break // absurd or truncated payload
		}
		payload := data[off+frameSize : off+frameSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // bit rot or torn write
		}
		if err := st.apply(payload); err != nil {
			break // CRC-valid but structurally bogus record
		}
		off += frameSize + int(n)
	}
	seg.validLen = int64(off)
	seg.torn = true
	st.TornTails++
	return nil
}

// replayDir scans every segment in order and returns the accumulated
// state plus the per-segment scan results.
func replayDir(dir string) (*State, []segment, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	st := newState()
	for i := range segs {
		if err := scanSegment(st, &segs[i]); err != nil {
			return nil, nil, err
		}
	}
	// Copy the commands out of the segment buffers, into a map sized for
	// what is still pending rather than for the deepest backlog replayed.
	pending := make(map[int]string, len(st.Pending))
	for seq, cmd := range st.Pending {
		pending[seq] = strings.Clone(cmd)
	}
	st.Pending = pending
	return st, segs, nil
}

// Replay reads a run log directory without modifying it and returns
// the replayed state. Torn tails are tolerated (truncated from the
// view and counted in State.TornTails); only I/O failures error.
func Replay(dir string) (*State, error) {
	st, _, err := replayDir(dir)
	return st, err
}
