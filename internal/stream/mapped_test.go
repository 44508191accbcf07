package stream

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adjstream/internal/graph"
)

// columnarBytes serializes s to the adjC format in memory.
func columnarBytes(t testing.TB, s *Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColumnarRoundTrip writes a multi-chunk stream and maps it back:
// every accessor and a driven estimator must agree with the original.
func TestColumnarRoundTrip(t *testing.T) {
	g := randomGraph(80, 0.3, 4)
	s := Random(g, 6)
	if s.Len() <= DefaultChunkItems {
		t.Fatalf("want a multi-chunk stream, got %d items", s.Len())
	}
	path := filepath.Join(t.TempDir(), "round.adjc")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Len() != s.Len() || m.M() != s.M() || m.Lists() != s.Lists() {
		t.Fatalf("header mismatch: got (%d,%d,%d), want (%d,%d,%d)",
			m.Len(), m.M(), m.Lists(), s.Len(), s.M(), s.Lists())
	}
	if !reflect.DeepEqual(m.ListOrder(), s.ListOrder()) {
		t.Error("ListOrder diverges after round trip")
	}
	if !reflect.DeepEqual(m.Items(), s.Items()) {
		t.Error("Items diverges after round trip")
	}
	orig := &sumEstimator{tracer: tracer{passes: 2}}
	mapped := &sumEstimator{tracer: tracer{passes: 2}}
	Run(s, orig)
	Run(m.Stream, mapped)
	if orig.Estimate() != mapped.Estimate() {
		t.Errorf("mapped replay estimate %v != in-memory %v", mapped.Estimate(), orig.Estimate())
	}
}

// TestColumnarRoundTripEmpty pins the zero-item stream.
func TestColumnarRoundTripEmpty(t *testing.T) {
	s, err := FromItems(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.adjc")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Len() != 0 || m.M() != 0 || m.Lists() != 0 {
		t.Fatalf("empty stream round-tripped to (%d,%d,%d)", m.Len(), m.M(), m.Lists())
	}
}

// TestWriteColumnarRejectsUnchunkable checks the columnar format's id
// range from both sides: a stream with an id beyond uint32 is rejected
// before WriteColumnar can see it, and one holding graph.MaxV round-trips
// through the adjC format with the id intact.
func TestWriteColumnarRejectsUnchunkable(t *testing.T) {
	big := graph.MaxV + 1
	if _, err := FromItems([]Item{{Owner: 1, Nbr: big}, {Owner: big, Nbr: 1}}); err == nil {
		t.Fatalf("FromItems accepted id %d beyond uint32", big)
	}
	s, err := FromItems([]Item{{Owner: 1, Nbr: graph.MaxV}, {Owner: graph.MaxV, Nbr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "max.adjc")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !reflect.DeepEqual(m.Items(), s.Items()) {
		t.Errorf("items after round trip = %v, want %v", m.Items(), s.Items())
	}
}

// TestOpenFileSniffsFormats round-trips one stream through both file
// formats, checks OpenFile dispatches each by magic, and checks files of
// the retired "adj1" format are rejected.
func TestOpenFileSniffsFormats(t *testing.T) {
	g := randomGraph(20, 0.3, 2)
	s := Sorted(g)
	dir := t.TempDir()

	colPath := filepath.Join(dir, "s.adjc")
	if err := WriteFile(colPath, s); err != nil {
		t.Fatal(err)
	}
	txtPath := filepath.Join(dir, "s.txt")
	var txt bytes.Buffer
	if err := WriteText(&txt, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txtPath, txt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{colPath, txtPath} {
		got, closeFn, err := OpenFile(path)
		if err != nil {
			t.Fatalf("OpenFile(%s): %v", path, err)
		}
		if !reflect.DeepEqual(got.Items(), s.Items()) {
			t.Errorf("OpenFile(%s): items diverge", path)
		}
		if err := closeFn(); err != nil {
			t.Errorf("close %s: %v", path, err)
		}
	}

	// Files of the retired "adj1" binary format are rejected by name.
	adj1 := []byte("adj1\x02\x02\x01\x02")
	adj1Path := filepath.Join(dir, "s.adj")
	if err := os.WriteFile(adj1Path, adj1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(adj1Path); err == nil || !strings.Contains(err.Error(), `"adj1"`) {
		t.Errorf("OpenFile(adj1) err = %v, want an error naming the retired format", err)
	}
	if _, err := ReadAny(bytes.NewReader(adj1)); err == nil || !strings.Contains(err.Error(), `"adj1"`) {
		t.Errorf("ReadAny(adj1) err = %v, want an error naming the retired format", err)
	}
}

// TestOpenMappedErrors corrupts a valid file one field at a time and checks
// each corruption is rejected.
func TestOpenMappedErrors(t *testing.T) {
	g := randomGraph(20, 0.3, 2)
	s := Sorted(g)
	valid := columnarBytes(t, s)
	open := func(t *testing.T, data []byte) error {
		t.Helper()
		path := filepath.Join(t.TempDir(), "case.adjc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(path)
		if err == nil {
			m.Close()
		}
		return err
	}
	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mutate(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", valid[:20]},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'x'; return b })},
		{"bad version", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 9)
			return b
		})},
		{"items m mismatch", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], 1)
			return b
		})},
		{"truncated payload", valid[:len(valid)-4]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0, 0, 0, 0)},
		{"run out of order", corrupt(func(b []byte) []byte {
			// First run of chunk 0 must be 0; bump it.
			nItems := binary.LittleEndian.Uint32(b[48:52])
			runOff := 48 + 8 + 8*nItems
			binary.LittleEndian.PutUint32(b[runOff:], 2)
			return b
		})},
		{"lists mismatch", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:40], 1)
			return b
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := open(t, tc.data); err == nil {
				t.Fatalf("OpenMapped accepted a %s file", tc.name)
			}
		})
	}
	// The uncorrupted bytes must still open (guards the corruptions above
	// against testing a stale layout).
	if err := open(t, valid); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
}

func TestMappedDoubleClose(t *testing.T) {
	g := randomGraph(10, 0.4, 1)
	path := filepath.Join(t.TempDir(), "s.adjc")
	if err := WriteFile(path, Sorted(g)); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// FuzzColumnarDecode checks the decoder never panics and that accepted
// inputs are structurally consistent with their headers.
func FuzzColumnarDecode(f *testing.F) {
	g := randomGraph(12, 0.4, 3)
	f.Add(columnarBytes(f, Sorted(g)))
	f.Add(columnarBytes(f, Random(g, 7)))
	empty, _ := FromItems(nil)
	f.Add(columnarBytes(f, empty))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeColumnar(data)
		if err != nil {
			return
		}
		total, runs := 0, 0
		for _, c := range s.Chunks() {
			total += len(c.Owners)
			runs += len(c.Runs)
		}
		if total != s.Len() {
			t.Fatalf("accepted file: chunks hold %d items, header says %d", total, s.Len())
		}
		if runs != s.Lists() {
			t.Fatalf("accepted file: chunks hold %d runs, header says %d", runs, s.Lists())
		}
		if got := len(s.Items()); got != s.Len() {
			t.Fatalf("accepted file: decoded %d items, header says %d", got, s.Len())
		}
		if got := len(s.ListOrder()); got != s.Lists() {
			t.Fatalf("accepted file: %d list-order entries, header says %d", got, s.Lists())
		}
	})
}
