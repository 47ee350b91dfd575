package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	kv := map[string]string{
		"aaaa": "alpha",
		"bbbb": "beta with a longer body " + string(bytes.Repeat([]byte("x"), 300)),
		"cccc": "",
	}
	for k, v := range kv {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	check := func(s *Store) {
		t.Helper()
		for k, v := range kv {
			got, ok := s.Get(k)
			if !ok || string(got) != v {
				t.Fatalf("get %q = %q, %v; want %q", k, got, ok, v)
			}
		}
		if _, ok := s.Get("missing"); ok {
			t.Fatal("missing key found")
		}
	}
	check(s)
	if st := s.Stats(); st.Entries != 3 || st.Recovered != 0 || st.Hits < 3 {
		t.Errorf("fresh stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index is rebuilt by scanning, nothing is lost.
	s2 := mustOpen(t, dir, Options{})
	check(s2)
	if st := s2.Stats(); st.Entries != 3 || st.Recovered != 3 || st.TornBytes != 0 {
		t.Errorf("reopened stats = %+v", st)
	}
}

func TestFirstWriteWins(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put("k", []byte("first")); err != nil {
		t.Fatal(err)
	}
	got1, _ := s.Get("k")
	if err := s.Put("k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("k"); string(got) != "first" {
		t.Fatalf("second Put overwrote the entry: %q", got)
	}
	// The duplicate never reached disk: same byte count, one entry.
	st := s.Stats()
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	want := int64(headerLen + len("k") + len("first") + crcLen)
	if st.Bytes != want {
		t.Errorf("bytes = %d, want %d (duplicate must not append)", st.Bytes, want)
	}
	// And the original slice is untouched (warm-hit byte identity).
	if string(got1) != "first" {
		t.Errorf("previously returned bytes mutated: %q", got1)
	}
	s.Close()

	// First-write-wins also holds across a reopen scan, even if a crafted
	// file carries a duplicate key: the scan keeps the earliest record.
	seg := filepath.Join(dir, "00000001.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(record("k", "forged-late-duplicate"))
	f.Close()
	s2 := mustOpen(t, dir, Options{})
	if got, _ := s2.Get("k"); string(got) != "first" {
		t.Fatalf("reopen preferred a later duplicate: %q", got)
	}
}

// record builds one wire-format record, mirroring Put's encoding.
func record(key, val string) []byte {
	n := headerLen + len(key) + len(val) + crcLen
	rec := make([]byte, n)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[headerLen:], key)
	copy(rec[headerLen+len(key):], val)
	binary.LittleEndian.PutUint32(rec[n-crcLen:], crc32.ChecksumIEEE(rec[:n-crcLen]))
	return rec
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// ~35-byte records against a 64-byte bound: every other Put rotates.
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 64})
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("segments = %d, want rotation to have produced several", st.Segments)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{MaxSegmentBytes: 64})
	for i := 0; i < n; i++ {
		got, ok := s2.Get(fmt.Sprintf("key-%02d", i))
		if !ok || string(got) != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("after reopen, key-%02d = %q, %v", i, got, ok)
		}
	}
	// Appends continue after reopen and land after the existing tail.
	if err := s2.Put("late", []byte("arrival")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("late"); !ok || string(got) != "arrival" {
		t.Fatalf("late append missing: %q, %v", got, ok)
	}
}

// TestGetOutlivesClose pins Get's contract: the returned bytes belong to
// the caller, so rcserve may keep them in its LRU past the store's Close.
// The first record is read from a segment no longer written to.
func TestGetOutlivesClose(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 64})
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("segments = %d, want the first record in a rotated-out segment", st.Segments)
	}
	got, ok := s.Get("key-00")
	if !ok {
		t.Fatal("key-00 missing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "value-00" {
		t.Fatalf("value after Close = %q, want %q", got, "value-00")
	}
}

// TestTornTailTruncatedAtEveryOffset is the crash-recovery sweep: a store
// with K records is cut off at every possible byte offset of its segment
// file, reopened, and must serve exactly the records whose final byte
// made it to disk — intact prefix preserved, torn tail detected by
// checksum/length and truncated.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src, Options{})
	const k = 4
	var boundaries []int64 // file offset after each record
	var off int64
	for i := 0; i < k; i++ {
		key := fmt.Sprintf("point-%d", i)
		val := fmt.Sprintf("result-body-%d", i)
		if err := s.Put(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		off += int64(headerLen + len(key) + len(val) + crcLen)
		boundaries = append(boundaries, off)
	}
	s.Close()
	whole, err := os.ReadFile(filepath.Join(src, "00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != off {
		t.Fatalf("segment is %d bytes, expected %d", len(whole), off)
	}

	for cut := 0; cut <= len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		intact := 0
		for _, b := range boundaries {
			if int64(cut) >= b {
				intact++
			}
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		st := s2.Stats()
		if int(st.Entries) != intact || int(st.Recovered) != intact {
			t.Fatalf("cut %d: recovered %d/%d records, want %d", cut, st.Entries, st.Recovered, intact)
		}
		for i := 0; i < k; i++ {
			got, ok := s2.Get(fmt.Sprintf("point-%d", i))
			if i < intact {
				if !ok || string(got) != fmt.Sprintf("result-body-%d", i) {
					t.Fatalf("cut %d: intact record %d = %q, %v", cut, i, got, ok)
				}
			} else if ok {
				t.Fatalf("cut %d: torn record %d served: %q", cut, i, got)
			}
		}
		wantTorn := int64(cut)
		if intact > 0 {
			wantTorn = int64(cut) - boundaries[intact-1]
		}
		if st.TornBytes != wantTorn {
			t.Fatalf("cut %d: torn bytes = %d, want %d", cut, st.TornBytes, wantTorn)
		}
		// The file was truncated back to the boundary, and a fresh append
		// both works and survives another reopen.
		if fi, err := os.Stat(filepath.Join(dir, "00000001.seg")); err != nil || fi.Size() != int64(cut)-wantTorn {
			t.Fatalf("cut %d: file size %v (err %v), want %d", cut, fi.Size(), err, int64(cut)-wantTorn)
		}
		if err := s2.Put("fresh", []byte("after-recovery")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got, ok := s3.Get("fresh"); !ok || string(got) != "after-recovery" {
			t.Fatalf("cut %d: post-recovery append lost: %q, %v", cut, got, ok)
		}
		s3.Close()
	}
}

// A flipped bit inside the file (not just a short tail) must also stop
// the scan at the damaged record rather than serve corrupt bytes.
func TestCorruptChecksumDropsRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put("good", []byte("kept"))
	s.Put("bad", []byte("damaged"))
	s.Close()
	path := filepath.Join(dir, "00000001.seg")
	b, _ := os.ReadFile(path)
	firstLen := headerLen + len("good") + len("kept") + crcLen
	b[firstLen+headerLen+1] ^= 0x40 // flip a bit in the second record's key/value area
	os.WriteFile(path, b, 0o644)

	s2 := mustOpen(t, dir, Options{})
	if got, ok := s2.Get("good"); !ok || string(got) != "kept" {
		t.Fatalf("good record lost: %q, %v", got, ok)
	}
	if _, ok := s2.Get("bad"); ok {
		t.Fatal("corrupt record served")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 256})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("k-%d", (g*13+i)%32)
				if err := s.Put(k, []byte("v-"+k)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.Get(k); !ok || string(v) != "v-"+k {
					t.Errorf("get %s = %q, %v", k, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Stats().Entries; n != 32 {
		t.Errorf("entries = %d, want 32", n)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put("", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}
