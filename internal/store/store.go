// Package store is the persistent tier of the rcserve result cache: an
// append-only, content-addressed corpus of simulation results that
// survives the daemon process. Records are (key, value) pairs — in rcserve
// the key is the canonical SHA-256 point key (serve.Key) and the value is
// the exact marshaled response body, so a result served from disk after a
// restart is byte-identical to the cold run that produced it.
//
// Layout: a directory of numbered segment files (00000001.seg,
// 00000002.seg, ...). Each record is
//
//	[4B LE key length][4B LE value length][key][value][4B LE CRC-32/IEEE]
//
// with the checksum covering everything before it. Appends go to the
// highest-numbered (active) segment and are fsynced before Put returns;
// when the active segment reaches the size bound a new one starts. Every
// segment is read with pread.
//
// Recovery: Open scans every segment in order and rebuilds the in-memory
// index (key → segment/offset/length). A record whose header runs past
// the end of its file, or whose checksum does not match, is a torn tail
// from a crash mid-append: scanning of that segment stops there, and if
// it is the active segment the file is truncated back to the last intact
// record so the next append starts on a clean boundary. Everything before
// the tear is served normally — durability is exactly "every Put that
// returned".
//
// Writes are first-write-wins: a Put for a key that is already indexed is
// a no-op. Values for one key are deterministic re-marshalings of the
// same simulation, so the first complete record is as good as any later
// one. Get returns a private copy of the value: the caller owns it, and
// it stays valid after Close.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	segSuffix = ".seg"
	headerLen = 8 // key length + value length, uint32 LE each
	crcLen    = 4

	// DefaultMaxSegmentBytes bounds one segment file (64 MiB). Sweeps
	// rotate through a handful of segments rather than one giant file.
	DefaultMaxSegmentBytes = 64 << 20

	// maxRecordLen sanity-bounds a single key or value length read from
	// disk, so a corrupt header cannot ask for a multi-gigabyte
	// allocation during recovery.
	maxRecordLen = 1 << 30
)

// Options tunes a Store; the zero value is ready to use.
type Options struct {
	// MaxSegmentBytes starts a new segment once the active one would pass
	// this many bytes (0 = DefaultMaxSegmentBytes). Records larger than
	// the bound still land whole: a segment always contains complete
	// records.
	MaxSegmentBytes int64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries   int64 // indexed records
	Bytes     int64 // total segment-file bytes on disk
	Hits      int64 // Get calls answered since Open
	Recovered int64 // records rebuilt into the index by Open's scan
	Segments  int64 // segment files
	TornBytes int64 // bytes of torn tail truncated during recovery
}

// recordRef locates one value inside a segment.
type recordRef struct {
	seg  int   // index into Store.segs
	off  int64 // offset of the value bytes
	vlen int32
}

// segment is one on-disk file; Put appends only to the last (active) one.
type segment struct {
	f    *os.File
	size int64
}

// Store is safe for concurrent use by multiple goroutines.
type Store struct {
	mu   sync.RWMutex
	dir  string
	opts Options
	segs []*segment
	idx  map[string]recordRef

	hits      atomic.Int64
	recovered int64
	tornBytes int64
	closed    bool
}

// Open opens (creating if needed) the store in dir and rebuilds the index
// by scanning every segment.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, idx: make(map[string]recordRef)}
	for i, name := range names {
		active := i == len(names)-1
		seg, err := s.openSegment(filepath.Join(dir, name), i, active)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	s.recovered = int64(len(s.idx))
	return s, nil
}

// segmentNames lists dir's segment files in creation order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == segSuffix {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded numeric names sort chronologically
	return names, nil
}

// openSegment scans one segment into the index. The active (last)
// segment is opened read-write and truncated past any torn tail; earlier
// segments are opened read-only.
func (s *Store) openSegment(path string, segIdx int, active bool) (*segment, error) {
	flags := os.O_RDONLY
	if active {
		flags = os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	seg := &segment{f: f}
	good, err := s.scan(f, segIdx)
	if err != nil {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if torn := fi.Size() - good; torn > 0 {
		s.tornBytes += torn
		if active {
			// Drop the torn tail so the next append starts on a record
			// boundary. Earlier segments are left as-is (read-only); the
			// scan already ignores everything past the tear.
			if err := f.Truncate(good); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: %w", err)
			}
		}
	}
	seg.size = good
	return seg, nil
}

// scan walks f's records from the start, indexing each intact one
// (first-write-wins), and returns the offset of the first byte past the
// last intact record.
func (s *Store) scan(f *os.File, segIdx int) (good int64, err error) {
	r := io.Reader(f)
	var off int64
	hdr := make([]byte, headerLen)
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return off, nil // clean EOF or torn header: stop here
		}
		klen := binary.LittleEndian.Uint32(hdr[0:4])
		vlen := binary.LittleEndian.Uint32(hdr[4:8])
		if klen == 0 || klen > maxRecordLen || vlen > maxRecordLen {
			return off, nil // corrupt header, treat as tear
		}
		n := int(klen) + int(vlen) + crcLen
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return off, nil // torn body
		}
		sum := crc32.NewIEEE()
		sum.Write(hdr)
		sum.Write(buf[:klen+vlen])
		if binary.LittleEndian.Uint32(buf[n-crcLen:]) != sum.Sum32() {
			return off, nil // checksum mismatch: torn or corrupt record
		}
		key := string(buf[:klen])
		if _, dup := s.idx[key]; !dup { // first write wins
			s.idx[key] = recordRef{seg: segIdx, off: off + headerLen + int64(klen), vlen: int32(vlen)}
		}
		off += headerLen + int64(n)
	}
}

// Get returns a private copy of the value stored for key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false
	}
	ref, ok := s.idx[key]
	if !ok {
		return nil, false
	}
	buf := make([]byte, ref.vlen)
	if _, err := s.segs[ref.seg].f.ReadAt(buf, ref.off); err != nil {
		return nil, false
	}
	s.hits.Add(1)
	return buf, true
}

// Put durably appends (key, val): the record is written and fsynced
// before Put returns. If the key is already present the call is a no-op
// (first write wins); the existing bytes are never rewritten.
func (s *Store) Put(key string, val []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if _, ok := s.idx[key]; ok {
		return nil
	}
	recLen := int64(headerLen + len(key) + len(val) + crcLen)
	seg, err := s.activeSegment(recLen)
	if err != nil {
		return err
	}
	rec := make([]byte, recLen)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[headerLen:], key)
	copy(rec[headerLen+len(key):], val)
	binary.LittleEndian.PutUint32(rec[recLen-crcLen:], crc32.ChecksumIEEE(rec[:recLen-crcLen]))
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := seg.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.idx[key] = recordRef{seg: len(s.segs) - 1, off: seg.size + headerLen + int64(len(key)), vlen: int32(len(val))}
	seg.size += recLen
	return nil
}

// activeSegment returns the segment the next record of recLen bytes
// should append to, rotating as needed.
func (s *Store) activeSegment(recLen int64) (*segment, error) {
	if n := len(s.segs); n > 0 {
		seg := s.segs[n-1]
		if seg.size == 0 || seg.size+recLen <= s.opts.MaxSegmentBytes {
			return seg, nil
		}
	}
	path := filepath.Join(s.dir, fmt.Sprintf("%08d%s", len(s.segs)+1, segSuffix))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// fsync the directory so the new segment's name survives a crash
	// as durably as the records inside it.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	seg := &segment{f: f}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var bytes int64
	for _, seg := range s.segs {
		bytes += seg.size
	}
	return Stats{
		Entries:   int64(len(s.idx)),
		Bytes:     bytes,
		Hits:      s.hits.Load(),
		Recovered: s.recovered,
		Segments:  int64(len(s.segs)),
		TornBytes: s.tornBytes,
	}
}

// Close closes every segment. Slices returned by Get stay valid. A
// crashed process that never calls Close loses nothing: every Put was
// fsynced when it returned.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
