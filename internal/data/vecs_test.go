package data

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// A header declaring a row far longer than the file must be an error
// from every reader, without allocating the row: `ff ff ff 7f` declares
// 2³¹−1 values, an 8 GiB float32 row and a 16 GiB ivecs one.
func TestReadVecsHugeHeader(t *testing.T) {
	dir := t.TempDir()
	for name, file := range map[string][]byte{
		"header only":          {0xff, 0xff, 0xff, 0x7f},
		"header and one value": {0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4},
		"second row":           {1, 0, 0, 0, 0, 0, 0x80, 0x3f, 0xff, 0xff, 0xff, 0x7f},
	} {
		path := filepath.Join(dir, "huge.vecs")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFvecs(path); err == nil {
			t.Errorf("%s: ReadFvecs accepted it", name)
		}
		if _, _, err := ReadFvecsFlat(path); err == nil {
			t.Errorf("%s: ReadFvecsFlat accepted it", name)
		}
		if _, err := ReadIvecs(path); err == nil {
			t.Errorf("%s: ReadIvecs accepted it", name)
		}
	}
}

// vecsSeeds are the files data_test.go and fvecs_flat_test.go write:
// round-tripped vectors and id lists, and their error cases.
func vecsSeeds(t testing.TB) [][]byte {
	dir := t.TempDir()
	var seeds [][]byte
	add := func(write func(path string) error) {
		path := filepath.Join(dir, "seed")
		if err := write(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, vecs := range [][][]float32{{{1, 2, 3}, {-4.5, 0, 9.25}}, {{1}, {1, 2}}, {{float32(math.NaN()), float32(math.Inf(-1))}}} {
		add(func(path string) error { return WriteFvecs(path, vecs) })
	}
	add(func(path string) error { return WriteIvecs(path, [][]uint64{{1, 2, 3}, {7}, {}}) })
	return append(seeds,
		[]byte{4, 0, 0, 0, 1, 2, 3},
		[]byte{0xff, 0xff, 0xff, 0xff},
		[]byte{0xff, 0xff, 0xff, 0x7f},
		[]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		nil,
	)
}

// FuzzReadVecs writes the fuzzed bytes to a file and reads it with every
// reader: none panics; ReadFvecs and ReadFvecsFlat fail together or read
// the same vectors, bit for bit; and a file either reader accepts, as an
// ivecs file ReadIvecs accepts, is written back byte for byte by
// WriteFvecs or WriteIvecs.
func FuzzReadVecs(f *testing.F) {
	for _, seed := range vecsSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.vecs")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		rewritten := func(write func(string) error) []byte {
			out := filepath.Join(dir, "out.vecs")
			if err := write(out); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		vecs, err := ReadFvecs(path)
		flat, dim, flatErr := ReadFvecsFlat(path)
		if (err == nil) != (flatErr == nil) {
			t.Fatalf("ReadFvecs: %v; ReadFvecsFlat: %v", err, flatErr)
		}
		if err == nil {
			var rows []float32
			for _, v := range vecs {
				if len(v) != dim {
					t.Fatalf("ReadFvecs read a %d-d vector, ReadFvecsFlat dim %d", len(v), dim)
				}
				rows = append(rows, v...)
			}
			if !slices.EqualFunc(rows, flat, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Fatalf("ReadFvecs and ReadFvecsFlat read different vectors")
			}
			if got := rewritten(func(out string) error { return WriteFvecs(out, vecs) }); !bytes.Equal(got, file) {
				t.Fatalf("WriteFvecs wrote %x back, read %x", got, file)
			}
		}

		if rows, err := ReadIvecs(path); err == nil {
			if got := rewritten(func(out string) error { return WriteIvecs(out, rows) }); !bytes.Equal(got, file) {
				t.Fatalf("WriteIvecs wrote %x back, read %x", got, file)
			}
		}
	})
}
