package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// FileSemaphore is a cross-process counting semaphore in the spirit of
// GNU Parallel's `sem` mode: N lock files in a shared directory bound the
// number of concurrent holders across independent processes (e.g. several
// scripts on one node throttling a shared resource).
//
// Each slot is a file created with O_CREATE|O_EXCL containing the holder's
// PID. Slots whose holder process no longer exists are considered stale
// and are reclaimed.
type FileSemaphore struct {
	dir  string
	n    int
	poll time.Duration
	// held maps the slot indexes this process currently owns to their
	// lock file paths.
	held map[int]string
}

// NewFileSemaphore returns a semaphore named by dir with n slots. The
// directory is created if missing. poll controls the retry interval when
// the semaphore is full (default 20ms).
func NewFileSemaphore(dir string, n int, poll time.Duration) (*FileSemaphore, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: semaphore needs >= 1 slot, got %d", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	return &FileSemaphore{dir: dir, n: n, poll: poll, held: map[int]string{}}, nil
}

func (s *FileSemaphore) slotPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("slot%d.lock", i))
}

// Acquire obtains one slot, polling until one frees or ctx is done. It
// returns the slot index.
func (s *FileSemaphore) Acquire(ctx context.Context) (int, error) {
	for {
		for i := 0; i < s.n; i++ {
			if _, mine := s.held[i]; mine {
				continue
			}
			if s.tryLock(i) {
				return i, nil
			}
		}
		select {
		case <-ctx.Done():
			return -1, ctx.Err()
		case <-time.After(s.poll):
		}
	}
}

// TryAcquire obtains a slot without waiting; it returns -1, false when
// none are free.
func (s *FileSemaphore) TryAcquire() (int, bool) {
	for i := 0; i < s.n; i++ {
		if _, mine := s.held[i]; mine {
			continue
		}
		if s.tryLock(i) {
			return i, true
		}
	}
	return -1, false
}

func (s *FileSemaphore) tryLock(i int) bool {
	p := s.slotPath(i)
	f, err := os.OpenFile(p, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		fmt.Fprintf(f, "%d\n", os.Getpid())
		f.Close()
		s.held[i] = p
		return true
	}
	// Slot taken: reclaim if the holder is gone (crashed without
	// releasing).
	if data, rerr := os.ReadFile(p); rerr == nil {
		pid, perr := strconv.Atoi(stringTrim(data))
		if perr == nil && !pidAlive(pid) {
			if os.Remove(p) == nil {
				return s.tryLock(i)
			}
		}
	}
	return false
}

// Release frees the given slot index held by this process.
func (s *FileSemaphore) Release(i int) error {
	p, ok := s.held[i]
	if !ok {
		return fmt.Errorf("core: releasing slot %d not held by this process", i)
	}
	delete(s.held, i)
	return os.Remove(p)
}

// Held returns how many slots this process currently holds.
func (s *FileSemaphore) Held() int { return len(s.held) }

func stringTrim(b []byte) string {
	i := 0
	j := len(b)
	for i < j && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t') {
		i++
	}
	for j > i && (b[j-1] == ' ' || b[j-1] == '\n' || b[j-1] == '\t') {
		j--
	}
	return string(b[i:j])
}
