package stream

// The mmap-able columnar stream file format ("adjC", version 1). The file
// stores the chunked columnar representation verbatim in little-endian
// byte order, so on little-endian hosts OpenMapped builds the chunk
// directory by aliasing the mapped bytes — replaying a multi-gigabyte
// stream costs zero parse work and no heap beyond the directory itself.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "adjC"
//	4       4     version (uint32, = 1)
//	8       4     chunkItems (uint32) — max items per chunk at write time
//	12      4     reserved (uint32, = 0)
//	16      8     items (uint64) — total item count (= 2m)
//	24      8     m (uint64) — distinct edge count
//	32      8     lists (uint64) — adjacency-list count (= total runs)
//	40      8     nchunks (uint64)
//	48      8·nchunks   directory: {nItems uint32, nRuns uint32} per chunk
//	...     per chunk: owners [nItems]uint32, nbrs [nItems]uint32,
//	               runs [nRuns]uint32
//
// Every field and array is 4-byte aligned by construction (the header is
// 48 bytes, directory entries and column elements are 4 bytes), so the
// aliased []uint32/[]int32 views are always well-aligned over a
// page-aligned mapping.
//
// OpenMapped performs structural validation only (sizes, run monotonicity,
// header consistency): the full adjacency-list promise is a property of
// the writer, which only accepts validated Streams.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

const (
	mappedMagic   = "adjC"
	mappedVersion = 1
	// mappedHeaderSize is the fixed header length in bytes.
	mappedHeaderSize = 48
	// mappedDirEntrySize is the per-chunk directory entry length in bytes.
	mappedDirEntrySize = 8
)

// hostLittleEndian reports whether native byte order matches the file
// format; when it does, column slices alias the raw bytes instead of being
// decoded element by element.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// WriteColumnar writes s in the "adjC" columnar format.
func WriteColumnar(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	var hdr [mappedHeaderSize]byte
	copy(hdr[0:4], mappedMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], mappedVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(DefaultChunkItems))
	binary.LittleEndian.PutUint32(hdr[12:16], 0)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(s.n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(s.m))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(s.lists))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(len(s.chunks)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("stream: write columnar: %w", err)
	}
	var u32 [4]byte
	put := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := bw.Write(u32[:])
		return err
	}
	for i := range s.chunks {
		c := &s.chunks[i]
		if err := put(uint32(len(c.Owners))); err != nil {
			return fmt.Errorf("stream: write columnar: %w", err)
		}
		if err := put(uint32(len(c.Runs))); err != nil {
			return fmt.Errorf("stream: write columnar: %w", err)
		}
	}
	for i := range s.chunks {
		c := &s.chunks[i]
		for _, v := range c.Owners {
			if err := put(v); err != nil {
				return fmt.Errorf("stream: write columnar: %w", err)
			}
		}
		for _, v := range c.Nbrs {
			if err := put(v); err != nil {
				return fmt.Errorf("stream: write columnar: %w", err)
			}
		}
		for _, r := range c.Runs {
			if err := put(uint32(r)); err != nil {
				return fmt.Errorf("stream: write columnar: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: write columnar: %w", err)
	}
	return nil
}

// WriteFile writes s to path in the "adjC" columnar format.
func WriteFile(path string, s *Stream) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := WriteColumnar(f, s); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Mapped is a Stream backed by a memory-mapped "adjC" file. The Stream is
// valid until Close; Close unmaps the file, after which the stream's
// chunks (and any not-yet-materialized Items view) must not be touched.
type Mapped struct {
	*Stream
	data   []byte
	mapped bool
}

// Close releases the mapping (a no-op for the read-into-memory fallback).
func (m *Mapped) Close() error {
	if !m.mapped || m.data == nil {
		m.data = nil
		return nil
	}
	data := m.data
	m.data = nil
	return munmapFile(data)
}

// OpenMapped opens an "adjC" columnar stream file. On platforms with mmap
// support the columns alias the mapped pages directly (on little-endian
// hosts; big-endian hosts decode a copy); elsewhere the file is read into
// memory. The returned stream is immutable and safe for concurrent replay.
func OpenMapped(path string) (*Mapped, error) {
	data, mapped, err := mmapFile(path)
	if err != nil {
		return nil, fmt.Errorf("stream: open %s: %w", path, err)
	}
	s, err := decodeColumnar(data)
	if err != nil {
		if mapped {
			_ = munmapFile(data)
		}
		return nil, fmt.Errorf("stream: open %s: %w", path, err)
	}
	return &Mapped{Stream: s, data: data, mapped: mapped}, nil
}

// decodeColumnar builds a Stream over the raw bytes of an "adjC" file,
// validating structure (sizes, offsets, run monotonicity, header totals)
// without touching the column payload.
func decodeColumnar(data []byte) (*Stream, error) {
	if len(data) < mappedHeaderSize {
		return nil, fmt.Errorf("columnar: file too short (%d bytes)", len(data))
	}
	if string(data[0:4]) != mappedMagic {
		return nil, fmt.Errorf("columnar: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != mappedVersion {
		return nil, fmt.Errorf("columnar: unsupported version %d", v)
	}
	items := binary.LittleEndian.Uint64(data[16:24])
	m := binary.LittleEndian.Uint64(data[24:32])
	lists := binary.LittleEndian.Uint64(data[32:40])
	nchunks := binary.LittleEndian.Uint64(data[40:48])
	if items > math.MaxInt32 {
		return nil, fmt.Errorf("columnar: item count %d too large", items)
	}
	if items%2 != 0 || m != items/2 {
		return nil, fmt.Errorf("columnar: m=%d inconsistent with %d items", m, items)
	}
	if lists > items || (items > 0 && lists == 0) {
		return nil, fmt.Errorf("columnar: list count %d inconsistent with %d items", lists, items)
	}
	if nchunks > items {
		return nil, fmt.Errorf("columnar: %d chunks for %d items", nchunks, items)
	}
	dirEnd := uint64(mappedHeaderSize) + nchunks*mappedDirEntrySize
	if uint64(len(data)) < dirEnd {
		return nil, fmt.Errorf("columnar: truncated directory")
	}
	chunks := make([]Chunk, 0, nchunks)
	var sumItems, sumRuns uint64
	off := dirEnd
	for ci := uint64(0); ci < nchunks; ci++ {
		ent := data[mappedHeaderSize+ci*mappedDirEntrySize:]
		nItems := uint64(binary.LittleEndian.Uint32(ent[0:4]))
		nRuns := uint64(binary.LittleEndian.Uint32(ent[4:8]))
		if nItems == 0 {
			return nil, fmt.Errorf("columnar: chunk %d is empty", ci)
		}
		if nRuns > nItems {
			return nil, fmt.Errorf("columnar: chunk %d has %d runs for %d items", ci, nRuns, nItems)
		}
		sumItems += nItems
		sumRuns += nRuns
		need := (2*nItems + nRuns) * 4
		if uint64(len(data))-off < need {
			return nil, fmt.Errorf("columnar: truncated payload at chunk %d", ci)
		}
		owners := u32View(data[off : off+nItems*4])
		nbrs := u32View(data[off+nItems*4 : off+2*nItems*4])
		runs := i32View(data[off+2*nItems*4 : off+need])
		off += need
		for i, r := range runs {
			if r < 0 || uint64(r) >= nItems || (i > 0 && r <= runs[i-1]) {
				return nil, fmt.Errorf("columnar: chunk %d run %d out of order", ci, i)
			}
		}
		chunks = append(chunks, Chunk{Owners: owners, Nbrs: nbrs, Runs: runs})
	}
	if off != uint64(len(data)) {
		return nil, fmt.Errorf("columnar: %d trailing bytes", uint64(len(data))-off)
	}
	if sumItems != items {
		return nil, fmt.Errorf("columnar: chunks hold %d items, header says %d", sumItems, items)
	}
	if sumRuns != lists {
		return nil, fmt.Errorf("columnar: chunks hold %d runs, header says %d lists", sumRuns, lists)
	}
	if items > 0 && (len(chunks[0].Runs) == 0 || chunks[0].Runs[0] != 0) {
		return nil, fmt.Errorf("columnar: first chunk does not start a list")
	}
	return &Stream{
		chunks: chunks,
		n:      int(items),
		lists:  int(lists),
		m:      int64(m),
	}, nil
}

// u32View reinterprets b (len divisible by 4) as []uint32: a zero-copy
// alias on aligned little-endian hosts, a decoded copy otherwise.
func u32View(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// i32View is u32View for the run-offset column. Run values are validated
// to be non-negative after decoding.
func i32View(b []byte) []int32 {
	u := u32View(b)
	if len(u) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&u[0])), len(u))
}

// ReadColumnar reads an entire "adjC" stream from r into memory. Unlike
// OpenMapped the returned stream owns its bytes and needs no Close.
func ReadColumnar(r io.Reader) (*Stream, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("stream: read columnar: %w", err)
	}
	s, err := decodeColumnar(data)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return s, nil
}

// retiredBinaryMagic is the magic of the retired "adj1" varint stream
// format; readers reject such files by name rather than misparse them as
// text.
const retiredBinaryMagic = "adj1"

// errRetiredBinary is the error for an "adj1" file.
var errRetiredBinary = errors.New(`stream: the "adj1" binary stream format is retired; write the stream as "adjC" columnar or text`)

// ReadAny reads a stream from r in any supported format, sniffing the
// 4-byte magic: "adjC" columnar, anything else text ("adj1" files of the
// retired binary format are rejected). The returned stream owns its memory;
// use OpenFile or OpenMapped to map a columnar file instead of copying it.
func ReadAny(r io.Reader) (*Stream, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("stream: %w", err)
	}
	switch {
	case len(magic) == 4 && string(magic) == mappedMagic:
		return ReadColumnar(br)
	case len(magic) == 4 && string(magic) == retiredBinaryMagic:
		return nil, errRetiredBinary
	default:
		return ReadText(br)
	}
}

// OpenFile opens a stream file of any supported format, sniffing the
// magic: "adjC" (columnar, memory-mapped) or text ("owner neighbor" per
// line); "adj1" files of the retired binary format are rejected. The
// returned closer releases any mapping and must be called after the stream
// is no longer used; it is never nil.
func OpenFile(path string) (*Stream, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: %w", err)
	}
	var magic [4]byte
	n, _ := io.ReadFull(f, magic[:])
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("stream: %w", err)
	}
	noop := func() error { return nil }
	switch {
	case n == 4 && string(magic[:]) == mappedMagic:
		f.Close()
		m, err := OpenMapped(path)
		if err != nil {
			return nil, nil, err
		}
		return m.Stream, m.Close, nil
	case n == 4 && string(magic[:]) == retiredBinaryMagic:
		f.Close()
		return nil, nil, errRetiredBinary
	default:
		defer f.Close()
		s, err := ReadText(f)
		return s, noop, err
	}
}
