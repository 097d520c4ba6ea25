//go:build unix

package core

import (
	"errors"
	"os"
	"syscall"
)

// procAttrSys places each child in its own process group so that
// cancellation signals reach grandchildren too (`sh -c 'work & wait'`).
// The child becomes the group leader, so -pid addresses the whole group.
// os.StartProcess only reads it.
var procAttrSys = &syscall.SysProcAttr{Setpgid: true}

// signalGroup sends the job's process group SIGKILL, or SIGTERM when
// kill is false. If the group cannot be signalled (EPERM) the direct
// child gets the signal instead.
func signalGroup(p *os.Process, kill bool) {
	sig := syscall.SIGTERM
	if kill {
		sig = syscall.SIGKILL
	}
	if err := syscall.Kill(-p.Pid, sig); err != nil && !errors.Is(err, syscall.ESRCH) {
		_ = p.Signal(sig) // fails only once the child is gone
	}
}

// pidAlive reports whether a process with the given pid exists (signal 0
// probe; EPERM counts as alive).
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || err == syscall.EPERM
}

// newCaptureFile returns a file that lives as long as a descriptor to it
// does and leaves nothing behind on disk: a memfd where the kernel offers
// one, else an unlinked file in the temporary directory.
func newCaptureFile() (*os.File, error) {
	if f, err := newMemfd(); err == nil {
		return f, nil
	}
	f, err := os.CreateTemp("", "gopar-out-")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// closeCaptureFile closes a file from newCaptureFile; it has no name to
// remove.
func closeCaptureFile(f *os.File) { f.Close() }
