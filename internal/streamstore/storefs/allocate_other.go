//go:build !linux

package storefs

import (
	"errors"
	"os"
)

// allocateOS reports that this platform has no preallocation the store
// uses; callers keep growing files by plain writes.
func allocateOS(*os.File, int64, int64) error { return errors.ErrUnsupported }
