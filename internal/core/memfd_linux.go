//go:build linux

package core

import (
	"errors"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// sysMemfdCreate is memfd_create(2)'s number on this architecture, 0
// where it is not listed: the syscall package defines it for only some
// architectures, amd64 not among them.
var sysMemfdCreate = map[string]uintptr{
	"amd64": 319, "386": 356, "s390x": 350,
	"arm64": 279, "riscv64": 279, "loong64": 279,
}[runtime.GOARCH]

// memfdName is the C-string name memfd_create gives its files; it
// shows only as the target of /proc/PID/fd links.
var memfdName = []byte("gopar-out\x00")

// newMemfd returns a new memory-backed file with no name on any
// filesystem, closed on exec (MFD_CLOEXEC).
func newMemfd() (*os.File, error) {
	if sysMemfdCreate == 0 {
		return nil, errors.ErrUnsupported
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&memfdName[0])), mfdCloexec, 0)
	if errno != 0 {
		return nil, errno
	}
	return os.NewFile(fd, "memfd:gopar-out"), nil
}
