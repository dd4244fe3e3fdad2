package iofault

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func openTemp(t *testing.T, name string) File {
	t.Helper()
	f, err := Open(filepath.Join(t.TempDir(), name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestFaultPassthroughWhenDisarmed(t *testing.T) {
	defer SetGlobal(nil)()
	f := openTemp(t, "plain.dat")
	if _, ok := f.(*os.File); !ok {
		t.Fatalf("disarmed Open returned %T, want *os.File passthrough", f)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

func TestFaultErrorOnNthWrite(t *testing.T) {
	restore := SetGlobal(NewInjector(Rule{PathGlob: "nth.dat", Op: OpWrite, AfterCalls: 2}))
	defer restore()
	f := openTemp(t, "nth.dat")
	for i := 0; i < 2; i++ {
		if _, err := f.WriteAt([]byte("ok"), int64(2*i)); err != nil {
			t.Fatalf("write %d should pass: %v", i, err)
		}
	}
	if _, err := f.WriteAt([]byte("xx"), 4); !errors.Is(err, syscall.EIO) {
		t.Fatalf("third write: got %v, want EIO", err)
	}
}

func TestFaultENOSPCAfterBytes(t *testing.T) {
	restore := SetGlobal(NewInjector(Rule{PathGlob: "full.dat", Op: OpWrite, AfterBytes: 10}))
	defer restore()
	f := openTemp(t, "full.dat")
	if _, err := f.Write([]byte("12345678")); err != nil { // 8 bytes, under budget
		t.Fatalf("first write: %v", err)
	}
	n, err := f.Write([]byte("abcdef")) // crosses the 10-byte budget
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	if n != 2 { // the 2 bytes that fit must land — disk-full writes are torn, not atomic
		t.Fatalf("short write landed %d bytes, want 2", n)
	}
	st, _ := f.Stat()
	if st.Size() != 10 {
		t.Fatalf("file size %d, want 10", st.Size())
	}
}

func TestFaultEIOOnRead(t *testing.T) {
	restore := SetGlobal(NewInjector(Rule{PathGlob: "r.dat", Op: OpRead}))
	defer restore()
	f := openTemp(t, "r.dat")
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("read: got %v, want EIO", err)
	}
}

func TestFaultSyncError(t *testing.T) {
	restore := SetGlobal(NewInjector(Rule{PathGlob: "s.dat", Op: OpSync, Once: true}))
	defer restore()
	f := openTemp(t, "s.dat")
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync: got %v, want EIO", err)
	}
	if err := f.Sync(); err != nil { // Once disarmed the rule
		t.Fatalf("second sync after Once: %v", err)
	}
}

func TestFaultTornWrite(t *testing.T) {
	restore := SetGlobal(NewInjector(Rule{PathGlob: "torn.dat", Op: OpWrite, Torn: true}))
	defer restore()
	f := openTemp(t, "torn.dat")
	n, err := f.WriteAt([]byte("0123456789"), 0)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("got %v, want EIO", err)
	}
	if n != 5 {
		t.Fatalf("torn write landed %d bytes, want 5", n)
	}
}

func TestFaultLatencyOnly(t *testing.T) {
	restore := SetGlobal(NewInjector(Rule{PathGlob: "slow.dat", Latency: 20 * time.Millisecond}))
	defer restore()
	f := openTemp(t, "slow.dat")
	start := time.Now()
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("latency-only rule must not fail the op: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("write took %v, want >= ~20ms of injected latency", d)
	}
}

func TestFaultGlobScoping(t *testing.T) {
	restore := SetGlobal(NewInjector(Rule{PathGlob: "tree_*.pg", Op: OpWrite}))
	defer restore()
	hit := openTemp(t, "tree_03.g2.pg")
	miss := openTemp(t, "vectors.pg")
	if _, err := hit.WriteAt([]byte("x"), 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("glob-matched file: got %v, want EIO", err)
	}
	if _, err := miss.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("unmatched file must pass: %v", err)
	}
}

func TestFaultTruncateCountsAsWrite(t *testing.T) {
	restore := SetGlobal(NewInjector(Rule{PathGlob: "t.dat", Op: OpWrite}))
	defer restore()
	f := openTemp(t, "t.dat")
	if err := f.Truncate(0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("truncate: got %v, want EIO", err)
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("wal.log:sync:c10;*.pg:read:l2ms;vectors.pg:write:b4096:enospc")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rules))
	}
	if rules[0].Op != OpSync || rules[0].AfterCalls != 10 {
		t.Fatalf("rule 0 parsed wrong: %+v", rules[0])
	}
	if rules[1].Latency != 2*time.Millisecond {
		t.Fatalf("rule 1 parsed wrong: %+v", rules[1])
	}
	if rules[2].AfterBytes != 4096 || !errors.Is(rules[2].Err, syscall.ENOSPC) {
		t.Fatalf("rule 2 parsed wrong: %+v", rules[2])
	}
	for _, bad := range []string{"", "a:b", "f:badop:c1", "f:read:z9", "f:read:c1:ebad"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
		}
	}
}
