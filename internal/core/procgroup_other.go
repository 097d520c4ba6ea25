//go:build !unix

package core

import (
	"os"
	"syscall"
)

// procAttrSys is nil: there are no process groups to place children in.
var procAttrSys *syscall.SysProcAttr

// signalGroup kills the direct child; there is no SIGTERM to send and
// no group to reach grandchildren through.
func signalGroup(p *os.Process, kill bool) {
	_ = p.Kill() // fails only once the child is gone
}

// pidAlive reports whether a process with the given pid can be found;
// on platforms where os.FindProcess always succeeds it is always true.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	_ = p.Release() // a lookup handle; nothing to recover
	return true
}

// newCaptureFile returns a temporary file, unlinked where the platform
// allows removing an open file; elsewhere (Windows) closeCaptureFile
// removes it.
func newCaptureFile() (*os.File, error) {
	f, err := os.CreateTemp("", "gopar-out-")
	if err != nil {
		return nil, err
	}
	_ = os.Remove(f.Name()) // fails where an open file cannot be removed
	return f, nil
}

// closeCaptureFile closes a file from newCaptureFile and removes it by
// name, in case it could not be unlinked while open.
func closeCaptureFile(f *os.File) {
	f.Close()
	_ = os.Remove(f.Name()) // already gone where it was unlinked open
}
