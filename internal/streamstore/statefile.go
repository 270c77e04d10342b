package streamstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// State-file framing: the snapshot and the cluster-close record are one
// binary stream.EngineState (stream.AppendEngineState — the codec is the
// type owner's) behind a fixed header that this package owns:
//
//	offset 0   4 bytes  magic: "PTDS" snapshot, "PTDK" cluster-close record
//	offset 4   1 byte   format version (2)
//	offset 5   8 bytes  snapshot: covered journal segment   | record: window
//	offset 13  8 bytes  snapshot: covered offset within it  | record: committed (0 or 1)
//	offset 21  8 bytes  payload length
//	offset 29  4 bytes  CRC-32 (IEEE) of bytes 0..28 and of the payload
//	offset 33           payload: the encoded engine state
//
// All integers are little-endian. The checksum covers everything a
// reader acts on — the covered position decides which acknowledged
// charge records recovery skips, the committed flag whether a rebooting
// coordinator re-drives the round — so no single damaged bit anywhere in
// the file loads. Version 1 payloads held an estimator-state field that
// version 2 dropped; a version-1 file is refused, not half-read.
// docs/DURABILITY.md carries the operator-facing copy.
const (
	snapshotMagic     = "PTDS"
	clusterCloseMagic = "PTDK"
	stateFileVersion  = 2
	stateHeaderLen    = 33
	stateCRCOffset    = stateHeaderLen - 4
)

// ErrLegacySnapshot reports a state directory whose snapshot.json or
// cluster-close.json was written by a JSON-era version of this package.
// This version does not read that form, and opening around the file
// would boot the engine as if it were empty — handing every user it
// records their spent epsilon back; the error names the file so an
// operator can decide what to do with it.
var ErrLegacySnapshot = errors.New("streamstore: JSON-era engine state file present, refusing to ignore its privacy charges")

// stateFileHeader starts a framed file with room for a payload of the
// given size; append the payload, then sealStateFile.
func stateFileHeader(magic string, a, b int64, payload int) []byte {
	hdr := make([]byte, stateHeaderLen, stateHeaderLen+payload)
	copy(hdr, magic)
	hdr[4] = stateFileVersion
	binary.LittleEndian.PutUint64(hdr[5:], uint64(a))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(b))
	return hdr
}

// sealStateFile backfills a framed file's payload length and checksum.
func sealStateFile(file []byte) []byte {
	binary.LittleEndian.PutUint64(file[21:], uint64(len(file)-stateHeaderLen))
	binary.LittleEndian.PutUint32(file[stateCRCOffset:], stateFileCRC(file))
	return file
}

// stateFileCRC checksums a framed file's header (up to the CRC field)
// and payload.
func stateFileCRC(file []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(file[:stateCRCOffset]), crc32.IEEETable, file[stateHeaderLen:])
}

// verifyStateFile checks a framed file — magic, version, length,
// checksum, in that order — and returns its two header words and its
// payload, unparsed (with no spare capacity). Errors are bare; callers
// wrap them in the file's own corruption sentinel.
func verifyStateFile(file []byte, magic string) (a, b int64, payload []byte, err error) {
	switch n := len(file) - stateHeaderLen; {
	case n < 0:
		err = fmt.Errorf("short header: %d of %d bytes", len(file), stateHeaderLen)
	case string(file[:4]) != magic:
		err = fmt.Errorf("bad magic %q, want %q", file[:4], magic)
	case file[4] != stateFileVersion:
		err = fmt.Errorf("unsupported format version %d (want %d)", file[4], stateFileVersion)
	case binary.LittleEndian.Uint64(file[21:]) != uint64(n):
		err = fmt.Errorf("payload length %d, file holds %d", binary.LittleEndian.Uint64(file[21:]), n)
	case stateFileCRC(file) != binary.LittleEndian.Uint32(file[stateCRCOffset:]):
		err = fmt.Errorf("checksum %08x, header says %08x", stateFileCRC(file), binary.LittleEndian.Uint32(file[stateCRCOffset:]))
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return int64(binary.LittleEndian.Uint64(file[5:])), int64(binary.LittleEndian.Uint64(file[13:])), file[stateHeaderLen:len(file):len(file)], nil
}

// refuseLegacyStateFileLocked fails Open with ErrLegacySnapshot when the
// named state file (the snapshot or the cluster-close record, which the
// Open-time directory scan found) is a JSON-era file: both were JSON
// objects, so they start with '{', which no magic does.
func (s *Store) refuseLegacyStateFileLocked(name string) error {
	path := filepath.Join(s.dir, name)
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("streamstore: open %s: %w", name, err)
	}
	var first [1]byte
	n, err := f.ReadAt(first[:], 0)
	_ = f.Close()
	if n == 1 && first[0] == '{' {
		return fmt.Errorf("%w: %s", ErrLegacySnapshot, path)
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("streamstore: read %s: %w", name, err)
	}
	return nil
}
