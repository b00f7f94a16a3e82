package core

// This file implements the whole-platform image: one durable artifact
// combining the main platform's relational state (the engine's SQL dump)
// with the semantic platform's binary snapshot (arena, views, statements —
// see internal/kb/snapshot.go). The paper couples the two platforms over
// REST (Sec. I-A); the image is the corresponding recovery unit, so a
// restarted deployment comes back with the databank AND every user's
// knowledge base without re-importing either. The frame is versioned and
// checksummed (CRC-32) so a torn or bit-rotted file fails loudly instead of
// restoring half a platform.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/wal"
)

// Image frame constants.
const (
	imageMagic = "CROSSEIMG"

	// imageVersion 2 adds the write-ahead-log anchor: the LSN of the last
	// logged mutation folded into the image, written (as a uvarint, covered
	// by the checksum) right after the version byte. Recovery replays the
	// log from that LSN. Version 1 images (pre-WAL) still load, with an
	// implied anchor of 0.
	imageVersion   = 2
	imageVersionV1 = 1

	// maxImageSection bounds one decoded section so a corrupt length prefix
	// cannot drive a runaway allocation.
	maxImageSection = 1 << 31
)

// WriteImage writes a platform image anchored at LSN 0 (no log).
func WriteImage(w io.Writer, db *engine.DB, p *kb.Platform) error {
	return WriteImageLSN(w, db, p, 0)
}

// WriteImageLSN writes a platform image: magic, version, the log anchor,
// the engine SQL dump and the kb binary snapshot (each length-prefixed),
// and a trailing CRC-32 over the anchor and both payloads.
func WriteImageLSN(w io.Writer, db *engine.DB, p *kb.Platform, lsn uint64) error {
	var sql bytes.Buffer
	if err := db.Dump(&sql); err != nil {
		return fmt.Errorf("core: dump databank: %w", err)
	}
	var snap bytes.Buffer
	if err := p.Snapshot(&snap); err != nil {
		return fmt.Errorf("core: snapshot semantic platform: %w", err)
	}
	anchor := binary.AppendUvarint(nil, lsn)

	crc := crc32.NewIEEE()
	crc.Write(anchor)
	crc.Write(sql.Bytes())
	crc.Write(snap.Bytes())

	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, imageMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(imageVersion); err != nil {
		return err
	}
	if _, err := bw.Write(anchor); err != nil {
		return err
	}
	for _, section := range [][]byte{sql.Bytes(), snap.Bytes()} {
		if _, err := bw.Write(binary.AppendUvarint(nil, uint64(len(section)))); err != nil {
			return err
		}
		if _, err := bw.Write(section); err != nil {
			return err
		}
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

func readSection(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxImageSection {
		return nil, fmt.Errorf("core: corrupt image: section of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// ReadImageLSN restores a platform image written by WriteImageLSN,
// returning a fresh databank and semantic platform and the image's
// write-ahead-log anchor: the LSN of the last logged mutation the image
// contains. Version 1 images (written before the log existed) report
// anchor 0. The checksum is verified before any state is rebuilt.
func ReadImageLSN(r io.Reader) (*engine.DB, *kb.Platform, uint64, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, 0, fmt.Errorf("core: read image header: %w", err)
	}
	if string(magic) != imageMagic {
		return nil, nil, 0, fmt.Errorf("core: not a platform image (bad magic %q)", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, 0, fmt.Errorf("core: read image version: %w", err)
	}
	if version != imageVersion && version != imageVersionV1 {
		return nil, nil, 0, fmt.Errorf("core: unsupported image version %d (have %d)", version, imageVersion)
	}
	var lsn uint64
	var anchor []byte
	if version == imageVersion {
		lsn, err = binary.ReadUvarint(br)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, nil, 0, fmt.Errorf("core: read image log anchor: %w", err)
		}
		anchor = binary.AppendUvarint(nil, lsn)
	}
	sqlDump, err := readSection(br)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: read databank section: %w", err)
	}
	snap, err := readSection(br)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: read semantic section: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, 0, fmt.Errorf("core: read image checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(anchor)
	crc.Write(sqlDump)
	crc.Write(snap)
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc.Sum32() {
		return nil, nil, 0, fmt.Errorf("core: image checksum mismatch (stored %08x, computed %08x)", got, crc.Sum32())
	}

	db := engine.Open()
	if err := db.Restore(bytes.NewReader(sqlDump)); err != nil {
		return nil, nil, 0, fmt.Errorf("core: restore databank: %w", err)
	}
	p, err := kb.Restore(bytes.NewReader(snap))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: restore semantic platform: %w", err)
	}
	return db, p, lsn, nil
}

// saveImageFS writes the platform image anchored at lsn to path on fs
// atomically, returning the image size in bytes. The temp file is fsynced
// before the rename and the parent directory after it, so the swap
// survives power loss — an atomic rename alone only survives a process
// crash. A crash mid-save leaves the previous image intact.
func saveImageFS(fs wal.FS, path string, db *engine.DB, p *kb.Platform, lsn uint64) (int64, error) {
	var buf bytes.Buffer
	if err := WriteImageLSN(&buf, db, p, lsn); err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return 0, err
	}
	size := int64(buf.Len())
	_, err = f.Write(buf.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp)
		return 0, err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return 0, err
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return size, nil
}
