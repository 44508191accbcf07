package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// The "adjM" snapshot-set container: how a shard's per-copy snapshots
// travel between processes — as files written by cyclecount -snapshot and
// merged by adjmerge, and as HTTP response bodies of the cluster shard
// endpoint (POST /v1/shard). The framing is deliberately the same on disk
// and on the wire, so a shard response saved to a file merges with adjmerge
// and a shard file replayed over HTTP parses unchanged.
//
// Layout (all little-endian): the 4-byte magic "adjM", a uint32 format
// version, a uint32 record count, then one record per snapshot — uint32
// global copy index (lo, lo+1, …), uint32 payload length, payload bytes.
// The indices record which copies of the full run the set covers, letting
// the merge verify disjoint full coverage of [0, k).

// snapshotSetMagic identifies a snapshot-set ("adjM" for merge).
const snapshotSetMagic = "adjM"

// snapshotSetVersion is the snapshot-set format version.
const snapshotSetVersion = 1

// SnapshotSetContentType is the media type a snapshot-set travels under
// over HTTP (the cluster shard endpoint's response body).
const SnapshotSetContentType = "application/x-adjstream-snapshot-set"

// MaxSnapshotSetBytes bounds how much of a snapshot-set HTTP body a client
// will read: per-copy snapshots are completed-run summaries (a few hundred
// bytes each), so even a thousand-copy run is far below this. Protects the
// proxy against a confused or malicious replica streaming garbage.
const MaxSnapshotSetBytes = 16 << 20

// WriteSnapshotSet writes the snapshot-set framing for snaps to w, with the
// records carrying global copy indices lo, lo+1, ….
func WriteSnapshotSet(w io.Writer, lo int, snaps [][]byte) error {
	if lo < 0 {
		return fmt.Errorf("stream: negative snapshot base index %d", lo)
	}
	hdr := make([]byte, 0, 12)
	hdr = append(hdr, snapshotSetMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, snapshotSetVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(snaps)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	for i, snap := range snaps {
		rec := make([]byte, 0, 8+len(snap))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(lo+i))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(snap)))
		rec = append(rec, snap...)
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	return nil
}

// EncodeSnapshotSet returns the snapshot-set framing as one byte slice —
// the form an HTTP handler writes as a response body after the status line,
// when partial writes must not follow a 200.
func EncodeSnapshotSet(lo int, snaps [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteSnapshotSet(&buf, lo, snaps); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadSnapshotSet reads a snapshot-set written by WriteSnapshotSet,
// returning each record's global copy index and payload.
func ReadSnapshotSet(r io.Reader) (indices []int, snaps [][]byte, err error) {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, nil, fmt.Errorf("stream: snapshot set header: %w", err)
	}
	if string(hdr[:4]) != snapshotSetMagic {
		return nil, nil, fmt.Errorf("stream: not a snapshot set (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != snapshotSetVersion {
		return nil, nil, fmt.Errorf("stream: snapshot set version %d, want %d", v, snapshotSetVersion)
	}
	// The header's sizes are claims, not data: every allocation grows with
	// the bytes actually read, so a short hostile body cannot buy a large
	// one, and no payload may claim more than MaxSnapshotSetBytes.
	n := binary.LittleEndian.Uint32(hdr[8:])
	var rec [8]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, nil, fmt.Errorf("stream: snapshot record %d: %w", i, err)
		}
		size := binary.LittleEndian.Uint32(rec[4:])
		if size > MaxSnapshotSetBytes {
			return nil, nil, fmt.Errorf("stream: snapshot record %d: %d-byte payload exceeds the %d-byte limit", i, size, MaxSnapshotSetBytes)
		}
		payload, err := io.ReadAll(io.LimitReader(r, int64(size)))
		if err == nil && len(payload) < int(size) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, nil, fmt.Errorf("stream: snapshot record %d: %w", i, err)
		}
		indices = append(indices, int(binary.LittleEndian.Uint32(rec[:])))
		snaps = append(snaps, payload)
	}
	return indices, snaps, nil
}
