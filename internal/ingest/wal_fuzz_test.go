package ingest

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlexray/internal/httpx"
)

// FuzzWALRecovery hands arbitrary bytes to the collector's startup WAL
// replay as a segment file. Whatever the corruption — bit flips, truncation,
// length prefixes claiming gigabytes, CRC-valid entries whose bodies do not
// decode — recovery must never panic: it either rejects the segment outright
// (an unreadable header is an error, not silent data loss) or truncates the
// torn tail / skips the bad chunk and reports it via Recovery().
func FuzzWALRecovery(f *testing.F) {
	// Seed corpus: a real segment written by the production append path
	// (two MLXB chunks, same shape wal_test.go drives), plus truncations
	// and single-byte corruptions of it — the shapes a torn disk actually
	// produces. The fuzzer mutates from there.
	dir := f.TempDir()
	w, err := createSessionWAL(walConfig{dir: dir}, "fuzz-device")
	if err != nil {
		f.Fatal(err)
	}
	l := synthLog(4, nil, false)
	base := time.Unix(1700000000, 0)
	for i := 0; i < 2; i++ {
		body := chunkBody(f, l, i*2, i*2+2)
		e := walEntry{stream: "s1", chunk: i, when: base.Add(time.Duration(i) * time.Second), body: body, sum: httpx.Checksum(body)}
		if err := w.append(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(walPath(dir, "fuzz-device"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)/2])
	f.Add(seg[:len(walMagic)+1])
	f.Add([]byte{})
	for _, pos := range []int{2, len(walMagic) + 2, len(seg) / 3, len(seg) - 3} {
		mut := append([]byte(nil), seg...)
		mut[pos] ^= 0xff
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz-device.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerOptions{DataDir: dir, MaxBodyBytes: 1 << 20})
		if err != nil {
			// Rejected segments are fine; panics are not.
			return
		}
		defer srv.Close()
		stats := srv.Recovery()
		if stats.Sessions > 1 {
			t.Fatalf("one segment recovered %d sessions", stats.Sessions)
		}
		_ = srv.Devices()
	})
}
