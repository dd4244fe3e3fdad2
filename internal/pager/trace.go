package pager

import (
	"bufio"
	"encoding/binary"
	"io"
)

// An access trace is what a cache's replacement policy sees, in the
// order the cache saw it: which files open and close with which
// share, every pin and release of a page, and every page a write or a
// failed read takes out of the pool. Replaying one against another
// policy at the same frames tells, exactly, how many misses that policy
// would have taken on the same run.
//
// The format is traceMagic, the number of queues the cache splits its
// frames over as a uvarint, then one record per event: an event byte
// and uvarints. A Cache is one queue and records 1; the committed
// testdata/query.trace comes from a pool that split its frames over
// eight queues by page id, and records 8.
//
//	'o' file share flags  a file opens (flags bit 0: caching off); file
//	                      counts the opens before it on this cache
//	'c' file              it closes
//	'h' file page         a pool hit pins the page
//	'm' file page         a miss admits the page, pinned, and reads it
//	'r' file page         one pin of the page is released
//	'a' file page         a write appends the page to the file
//	'w' file page         a write replaces the page
//	'f' file page         the miss's read of the page fails
//
// A 'w' or an 'f' drops the page's resident copy, if any: its pins stay
// with their holders, whose releases are not recorded.
const traceMagic = "HDPGTRC1"

const (
	evOpen    = 'o'
	evClose   = 'c'
	evHit     = 'h'
	evMiss    = 'm'
	evRelease = 'r'
	evAlloc   = 'a'
	evWrite   = 'w'
	evFail    = 'f'
)

// recorder writes a cache's access trace. Cache.rec is nil when no trace
// is taken, so an access pays one pointer test for the instrument.
// Events are written under Cache.mu, so the trace keeps the order the
// cache took them in.
type recorder struct {
	w     *bufio.Writer
	err   error // the first write error; later events are dropped
	files map[*Pager]uint64
	opens uint64
	buf   [1 + 3*binary.MaxVarintLen64]byte
}

// record starts writing c's access trace to w. It must be called before
// the first Open on c; flush the trace with c.rec.flush.
func (c *Cache) record(w io.Writer) {
	r := &recorder{w: bufio.NewWriterSize(w, 1<<16), files: make(map[*Pager]uint64)}
	_, r.err = r.w.Write(binary.AppendUvarint([]byte(traceMagic), 1))
	c.rec = r
}

func (r *recorder) write(ev byte, args ...uint64) {
	b := append(r.buf[:0], ev)
	for _, a := range args {
		b = binary.AppendUvarint(b, a)
	}
	if r.err == nil {
		_, r.err = r.w.Write(b)
	}
}

func (r *recorder) open(p *Pager) {
	r.files[p] = r.opens
	var flags uint64
	if p.noCache {
		flags = 1
	}
	r.write(evOpen, r.opens, uint64(p.share), flags)
	r.opens++
}

func (r *recorder) close(p *Pager) {
	r.write(evClose, r.files[p])
	delete(r.files, p)
}

func (r *recorder) access(ev byte, p *Pager, id PageID) {
	r.write(ev, r.files[p], uint64(id))
}

// flush writes out what is buffered and returns the first write error.
// Call it once no access to the cache is in flight.
func (r *recorder) flush() error {
	if r.err == nil {
		r.err = r.w.Flush()
	}
	return r.err
}
