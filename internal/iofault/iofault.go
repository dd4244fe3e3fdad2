// Package iofault is the failure-injection seam between the storage
// layers (pager, WAL, vecstore-via-pager) and the filesystem. In
// production it is a zero-cost passthrough to *os.File; in tests (or
// via the HD_IOFAULT env spec) an Injector interposes on the handful
// of file operations the storage layers use and fails them the way
// real disks fail: EIO on the Nth read, ENOSPC once a byte budget is
// exhausted, torn short writes, fsync errors, added latency.
//
// The seam exists so the hardened error paths in wal/core/pager are
// *proven* under injection rather than argued about: every "what if
// the fsync fails here" branch has a test that makes the fsync fail
// exactly there.
package iofault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// File is the slice of *os.File the storage layers consume. Keeping it
// an interface (rather than a concrete wrapper struct) lets the
// passthrough path hand back the *os.File itself — no indirection, no
// behaviour change — when no injector is armed.
type File interface {
	io.Reader
	io.ReaderAt
	io.WriterAt
	io.Writer
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Name() string
}

// Op classifies file operations for rule matching.
type Op uint8

const (
	OpAny Op = iota
	OpRead
	OpWrite // WriteAt, Write, and Truncate
	OpSync
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	default:
		return "any"
	}
}

// Rule arms one fault. The zero value of each field means "no
// constraint": a Rule{} matches every operation on every file and
// fails it immediately with EIO.
type Rule struct {
	// PathGlob matches against filepath.Base of the file's path
	// ("wal.log", "tree_*.pg", "*"). Empty matches everything.
	PathGlob string
	// Op restricts the rule to reads, writes (incl. truncate), or
	// syncs. OpAny matches all three.
	Op Op
	// AfterCalls delays the fault until this many matching calls have
	// succeeded: 0 fires on the first call, 2 lets two calls through
	// and fails the third. Counted across all files the rule matches.
	AfterCalls int64
	// AfterBytes (writes only) lets this many bytes through — summed
	// across matching files — then fails with ENOSPC (or Err). The
	// failing write is torn at the budget boundary: the prefix that
	// fits is written, the error reports a short count. This is the
	// disk-full model.
	AfterBytes int64
	// Err overrides the injected error. Default: syscall.ENOSPC when
	// AfterBytes is set, syscall.EIO otherwise.
	Err error
	// Torn (writes only) makes the failing write a short write: half
	// the buffer is actually written before the error returns.
	Torn bool
	// Latency is added before every matching operation — the slow-disk
	// model. A latency-only rule (Err == nil, no count/byte trigger,
	// Latency > 0) never fails the operation.
	Latency time.Duration
	// Once disarms the rule after its first injected failure.
	Once bool
}

func (r Rule) defaultErr() error {
	if r.Err != nil {
		return r.Err
	}
	if r.AfterBytes > 0 {
		return syscall.ENOSPC
	}
	return syscall.EIO
}

// latencyOnly reports whether the rule only injects latency and never
// an error.
func (r Rule) latencyOnly() bool {
	return r.Latency > 0 && r.Err == nil && r.AfterCalls == 0 && r.AfterBytes == 0 && !r.Torn
}

type ruleState struct {
	Rule
	calls    atomic.Int64
	bytes    atomic.Int64
	disarmed atomic.Bool
}

// Injector holds armed rules. Install one with SetGlobal (tests) or
// the HD_IOFAULT env variable (whole-process chaos runs).
type Injector struct {
	rules []*ruleState
}

// NewInjector arms the given rules.
func NewInjector(rules ...Rule) *Injector {
	in := &Injector{}
	for _, r := range rules {
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	return in
}

// fault is the outcome of consulting the injector for one operation.
type fault struct {
	err     error
	latency time.Duration
	// wrote caps how many bytes of a failing write actually land
	// (AfterBytes budget remainder, or half the buffer for Torn).
	// -1 means "none / not a write fault".
	wrote int64
}

// check consults every rule for one operation. n is the byte count for
// writes (0 otherwise). The first error-injecting rule wins; latency
// accumulates across matching rules.
func (in *Injector) check(base string, op Op, n int64) fault {
	f := fault{wrote: -1}
	if in == nil {
		return f
	}
	for _, rs := range in.rules {
		if rs.disarmed.Load() {
			continue
		}
		if rs.Op != OpAny && rs.Op != op {
			continue
		}
		if rs.PathGlob != "" {
			if ok, _ := filepath.Match(rs.PathGlob, base); !ok {
				continue
			}
		}
		f.latency += rs.Latency
		if rs.latencyOnly() {
			continue
		}
		if f.err != nil {
			continue // an earlier rule already failed this op
		}
		if rs.AfterBytes > 0 {
			if op != OpWrite {
				continue
			}
			used := rs.bytes.Add(n)
			if used <= rs.AfterBytes {
				continue // still under budget
			}
			f.err = rs.defaultErr()
			if fits := rs.AfterBytes - (used - n); fits > 0 {
				f.wrote = fits
			} else {
				f.wrote = 0
			}
		} else {
			if c := rs.calls.Add(1); c <= rs.AfterCalls {
				continue
			}
			f.err = rs.defaultErr()
			if rs.Torn && op == OpWrite {
				f.wrote = n / 2
			} else if op == OpWrite {
				f.wrote = 0
			}
		}
		if rs.Once {
			rs.disarmed.Store(true)
		}
	}
	return f
}

// The active injector. Swapped atomically so the passthrough fast path
// is one atomic load.
var global atomic.Pointer[Injector]

// SetGlobal installs inj as the process-wide injector. Files opened
// before the call are unaffected unless they were opened while *any*
// injector (even an empty one) was armed — Open only wraps when an
// injector is active at open time. Tests that arm rules mid-run should
// therefore SetGlobal before opening the index. Returns a restore
// function for defer.
func SetGlobal(inj *Injector) (restore func()) {
	prev := global.Swap(inj)
	return func() { global.Store(prev) }
}

var envOnce sync.Once

// Open is the os.OpenFile replacement the storage layers call. With no
// injector armed it returns the *os.File itself.
func Open(path string, flag int, perm os.FileMode) (File, error) {
	envOnce.Do(installEnvInjector)
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return Wrap(path, f), nil
}

// Wrap attaches the active injector to an already-open file (used for
// temp files created with os.CreateTemp). With no injector armed it
// returns f unchanged.
func Wrap(path string, f *os.File) File {
	inj := global.Load()
	if inj == nil {
		return f
	}
	return &faultFile{f: f, base: filepath.Base(path), inj: inj}
}

// faultFile interposes the injector on every operation.
type faultFile struct {
	f    *os.File
	base string
	inj  *Injector
}

func (ff *faultFile) fault(op Op, n int64) fault {
	f := ff.inj.check(ff.base, op, n)
	if f.latency > 0 {
		time.Sleep(f.latency)
	}
	return f
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if f := ff.fault(OpRead, 0); f.err != nil {
		return 0, &os.PathError{Op: "read", Path: ff.f.Name(), Err: f.err}
	}
	return ff.f.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f := ff.fault(OpRead, 0); f.err != nil {
		return 0, &os.PathError{Op: "read", Path: ff.f.Name(), Err: f.err}
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) writeFault(op string, p []byte, do func([]byte) (int, error)) (int, error) {
	f := ff.fault(OpWrite, int64(len(p)))
	if f.err == nil {
		return do(p)
	}
	n := 0
	if f.wrote > 0 { // torn write: land the allowed prefix for real
		n, _ = do(p[:f.wrote])
	}
	return n, &os.PathError{Op: op, Path: ff.f.Name(), Err: f.err}
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return ff.writeFault("write", p, func(q []byte) (int, error) { return ff.f.WriteAt(q, off) })
}

func (ff *faultFile) Write(p []byte) (int, error) {
	return ff.writeFault("write", p, ff.f.Write)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Sync() error {
	if f := ff.fault(OpSync, 0); f.err != nil {
		return &os.PathError{Op: "sync", Path: ff.f.Name(), Err: f.err}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) (err error) {
	if f := ff.fault(OpWrite, 0); f.err != nil {
		return &os.PathError{Op: "truncate", Path: ff.f.Name(), Err: f.err}
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Stat() (os.FileInfo, error) { return ff.f.Stat() }
func (ff *faultFile) Close() error               { return ff.f.Close() }
func (ff *faultFile) Name() string               { return ff.f.Name() }

// installEnvInjector parses HD_IOFAULT and arms the result. The spec
// is semicolon-separated rules of colon-separated fields:
//
//	glob:op:trigger[:err]
//
// where op is read|write|sync|any, trigger is either "cN" (fail after
// N successful calls), "bN" (ENOSPC after N bytes), or "lDUR" (latency
// only, e.g. l5ms), and err overrides the injected errno (eio|enospc).
// Example:
//
//	HD_IOFAULT='wal.log:sync:c10;*.pg:read:l2ms'
//
// A malformed spec panics at first Open: chaos runs must not silently
// degrade to no-fault runs.
func installEnvInjector() {
	spec := os.Getenv("HD_IOFAULT")
	if spec == "" {
		return
	}
	rules, err := ParseSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("iofault: bad HD_IOFAULT %q: %v", spec, err))
	}
	SetGlobal(NewInjector(rules...))
}

// ParseSpec parses the HD_IOFAULT rule grammar (see
// installEnvInjector). Exported for the chaos tooling's own tests.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("rule %q: want glob:op:trigger[:err]", part)
		}
		r := Rule{PathGlob: fields[0]}
		switch fields[1] {
		case "read":
			r.Op = OpRead
		case "write":
			r.Op = OpWrite
		case "sync":
			r.Op = OpSync
		case "any", "":
			r.Op = OpAny
		default:
			return nil, fmt.Errorf("rule %q: unknown op %q", part, fields[1])
		}
		trig := fields[2]
		if trig == "" {
			return nil, fmt.Errorf("rule %q: empty trigger", part)
		}
		switch trig[0] {
		case 'c':
			n, err := strconv.ParseInt(trig[1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("rule %q: bad call count: %v", part, err)
			}
			r.AfterCalls = n
		case 'b':
			n, err := strconv.ParseInt(trig[1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("rule %q: bad byte budget: %v", part, err)
			}
			r.AfterBytes = n
		case 'l':
			d, err := time.ParseDuration(trig[1:])
			if err != nil {
				return nil, fmt.Errorf("rule %q: bad latency: %v", part, err)
			}
			r.Latency = d
		default:
			return nil, fmt.Errorf("rule %q: trigger must start with c, b, or l", part)
		}
		if len(fields) == 4 {
			switch fields[3] {
			case "eio":
				r.Err = syscall.EIO
			case "enospc":
				r.Err = syscall.ENOSPC
			default:
				return nil, fmt.Errorf("rule %q: unknown err %q", part, fields[3])
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("empty spec")
	}
	return rules, nil
}
