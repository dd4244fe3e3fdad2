package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// fvecs/ivecs are the file formats the paper's corpora are distributed in
// (corpus-texmex.irisa.fr): each vector is an int32 dimension count
// followed by dim little-endian float32 (fvecs) or int32 (ivecs) values.

// WriteFvecs writes vectors to path in fvecs format.
func WriteFvecs(path string, vectors [][]float32) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("data: create %s: %w", path, err)
	}
	w := bufio.NewWriter(f)
	var buf [4]byte
	for _, v := range vectors {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(v)))
		if _, err := w.Write(buf[:]); err != nil {
			f.Close()
			return err
		}
		for _, x := range v {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			if _, err := w.Write(buf[:]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rowPrealloc caps what a row reader allocates on a header's word: a row
// grows as its values are read, so a lying header cannot exhaust memory.
const rowPrealloc = 1 << 12

// ReadFvecs reads all vectors from an fvecs file. Every vector must have
// the same dimensionality.
func ReadFvecs(path string) ([][]float32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: open %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var vectors [][]float32
	var buf [4]byte
	dim := -1
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if err == io.EOF {
				return vectors, nil
			}
			return nil, fmt.Errorf("data: read %s: %w", path, err)
		}
		d := int(int32(binary.LittleEndian.Uint32(buf[:])))
		if d <= 0 {
			return nil, fmt.Errorf("data: %s: bad dimension %d", path, d)
		}
		if dim == -1 {
			dim = d
		} else if d != dim {
			return nil, fmt.Errorf("data: %s: mixed dimensions %d and %d", path, dim, d)
		}
		v := make([]float32, 0, min(d, rowPrealloc))
		for range d {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, fmt.Errorf("data: %s: truncated vector: %w", path, err)
			}
			v = append(v, math.Float32frombits(binary.LittleEndian.Uint32(buf[:])))
		}
		vectors = append(vectors, v)
	}
}

// ReadFvecsFlat reads all vectors from an fvecs file into one flat
// row-major matrix (vector i at flat[i*dim:(i+1)*dim]) and returns it
// with the dimensionality. One backing array replaces ReadFvecs's
// n separate slices — for large corpora that halves load-time heap
// overhead and leaves the data cache-linear, the layout the flat build
// path consumes. The row count is derived from the file size up front,
// so the matrix is allocated exactly once.
func ReadFvecsFlat(path string) (flat []float32, dim int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("data: open %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("data: stat %s: %w", path, err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, nil // empty file: zero vectors
		}
		return nil, 0, fmt.Errorf("data: read %s: %w", path, err)
	}
	dim = int(int32(binary.LittleEndian.Uint32(hdr[:])))
	if dim <= 0 {
		return nil, 0, fmt.Errorf("data: %s: bad dimension %d", path, dim)
	}
	recSize := int64(4 + 4*dim)
	if st.Size()%recSize != 0 {
		return nil, 0, fmt.Errorf("data: %s: size %d is not a multiple of the %d-byte record", path, st.Size(), recSize)
	}
	n := int(st.Size() / recSize)
	flat = make([]float32, n*dim)
	row := make([]byte, 4*dim)
	for i := 0; i < n; i++ {
		if i > 0 {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return nil, 0, fmt.Errorf("data: %s: truncated header: %w", path, err)
			}
			if d := int(int32(binary.LittleEndian.Uint32(hdr[:]))); d != dim {
				return nil, 0, fmt.Errorf("data: %s: mixed dimensions %d and %d", path, dim, d)
			}
		}
		if _, err := io.ReadFull(r, row); err != nil {
			return nil, 0, fmt.Errorf("data: %s: truncated vector: %w", path, err)
		}
		out := flat[i*dim : (i+1)*dim]
		for d := range out {
			out[d] = math.Float32frombits(binary.LittleEndian.Uint32(row[4*d:]))
		}
	}
	return flat, dim, nil
}

// Rows reinterprets a flat row-major matrix as per-row slices without
// copying: row i aliases flat[i*dim:(i+1)*dim]. The bridge between
// ReadFvecsFlat and [][]float32 APIs — n slice headers instead of n
// data copies.
func Rows(flat []float32, dim int) [][]float32 {
	if dim <= 0 || len(flat)%dim != 0 {
		panic("data: flat length not a multiple of dim")
	}
	rows := make([][]float32, len(flat)/dim)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// WriteIvecs writes integer id lists (e.g. ground truth) in ivecs format.
func WriteIvecs(path string, rows [][]uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("data: create %s: %w", path, err)
	}
	w := bufio.NewWriter(f)
	var buf [4]byte
	for _, row := range rows {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(row)))
		if _, err := w.Write(buf[:]); err != nil {
			f.Close()
			return err
		}
		for _, x := range row {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			if _, err := w.Write(buf[:]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadIvecs reads integer id lists from an ivecs file.
func ReadIvecs(path string) ([][]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: open %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var rows [][]uint64
	var buf [4]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if err == io.EOF {
				return rows, nil
			}
			return nil, fmt.Errorf("data: read %s: %w", path, err)
		}
		n := int(int32(binary.LittleEndian.Uint32(buf[:])))
		if n < 0 {
			return nil, fmt.Errorf("data: %s: bad row length %d", path, n)
		}
		row := make([]uint64, 0, min(n, rowPrealloc))
		for range n {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, fmt.Errorf("data: %s: truncated row: %w", path, err)
			}
			row = append(row, uint64(binary.LittleEndian.Uint32(buf[:])))
		}
		rows = append(rows, row)
	}
}
