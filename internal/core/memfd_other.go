//go:build unix && !linux

package core

import (
	"errors"
	"os"
)

// newMemfd is unsupported: memfd_create is Linux-only.
func newMemfd() (*os.File, error) { return nil, errors.ErrUnsupported }
