// Package store is a disk-backed, content-addressed store for
// completed simulation results: the durable second tier below the
// runner's in-memory LRU.
//
// Layout is deliberately simple — append-only segment files of
// length-prefixed, checksummed records, plus an in-memory index
// rebuilt by scanning the segments on open:
//
//	segment file (seg-%016x.seg):
//	    8-byte magic "DLSTORE1"
//	    record*
//	record:
//	    u32  length of body (little endian)
//	    u32  CRC-32 (IEEE) of body
//	    body = u8 flags | u16 id length | id bytes | payload
//
// Records are immutable once written; a re-Put of an existing ID
// appends a new record (last write wins on replay).  Flags bit 0 marks
// a tombstone, which replay honours by deleting the ID; this package
// writes none.  The bytes superseded by a re-Put are "dead" and
// reclaimed by compaction: when the store's total size exceeds
// MaxBytes, live records are rewritten into fresh segments in append
// order and the old files removed; if the live set alone still
// exceeds the bound, the oldest live entries are dropped and reported
// to the function registered with Store.OnDrop (so the serving layer
// can answer 410 Gone for them).  Compaction is crash-safe in the
// lossless direction: new segments are written and fsynced before old
// ones are removed, and replay resolves duplicates newest-segment-
// wins, so a crash mid-compaction can resurrect dropped entries but
// never lose live ones.
//
// Crash consistency: appends are buffered by the OS until Snapshot or
// Close fsyncs (the dlsimd drain path calls Close before exit).  A
// crash can therefore tear the final record — a partial header, a
// short body, or a checksum mismatch.  Open detects the torn tail,
// truncates the segment back to the last intact record, and keeps
// every fully-written record before it; it never invents or drops
// intact data.
//
// The package depends only on the standard library and the in-repo
// telemetry registry, which holds the store's only counts (the
// dlsim_store_* metrics Stats reads) and its open/replay span.  It
// knows nothing about job results: values are opaque byte payloads
// keyed by string IDs.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// Size defaults; see Options.
const (
	// DefaultMaxBytes bounds the store's on-disk footprint when
	// Options.MaxBytes is zero.
	DefaultMaxBytes = 256 << 20

	// DefaultSegmentBytes is the target size at which the active
	// segment is sealed and a new one started.
	DefaultSegmentBytes = 8 << 20

	// MaxIDLen bounds record IDs (they are 16-17 byte content hashes
	// in practice).
	MaxIDLen = 256

	// MaxPayloadLen bounds one record's payload.
	MaxPayloadLen = 1 << 30
)

var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")

	// ErrIDTooLong rejects Put IDs that are empty or beyond MaxIDLen.
	ErrIDTooLong = errors.New("store: id too long")

	// ErrPayloadTooLarge rejects Put payloads beyond MaxPayloadLen.
	ErrPayloadTooLarge = errors.New("store: payload too large")
)

const (
	magic         = "DLSTORE1"
	headerLen     = 8 // u32 length + u32 crc
	flagTombstone = 1 << 0
)

// Options configures Open.
type Options struct {
	// MaxBytes bounds the total on-disk size across all segments.
	// Exceeding it triggers compaction; if the live set alone exceeds
	// it, the oldest live entries are dropped (see Store.OnDrop).
	// Zero means DefaultMaxBytes; negative means unbounded.
	MaxBytes int64

	// SegmentBytes is the size at which the active segment rolls
	// over.  Zero picks DefaultSegmentBytes, clamped to a quarter of
	// MaxBytes so a bounded store always spans several segments.
	SegmentBytes int64

	// Metrics is the telemetry registry the store registers its
	// dlsim_store_* instruments in.  Nil means a private registry:
	// the instruments are the store's only counts, and Stats reads
	// them.
	Metrics *telemetry.Registry

	// Tracer, when set, records the open/replay work as the span tree
	// "store-open" (segments scanned, records replayed, tail
	// recoveries) addressable via the tracer like any job trace.
	Tracer *telemetry.Tracer
}

// recLoc locates one live record inside a segment.
type recLoc struct {
	seg  *segment
	off  int64 // record start (header)
	size int64 // header + body
}

// segment is one append-only file.
type segment struct {
	seq  uint64
	path string
	f    *os.File
	size int64 // validated bytes (magic + intact records)
	live int64 // bytes of records currently referenced by the index
}

// metrics is the store's instrument set.
type metrics struct {
	hits, misses, writes     *telemetry.Counter
	writeErrors, compactions *telemetry.Counter
	dropped, torn            *telemetry.Counter
	bytes, segments, entries *telemetry.Gauge
	replayed                 *telemetry.Counter
}

func newStoreMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &metrics{
		hits:        reg.Counter("dlsim_store_hits_total", "Store reads that found the requested entry."),
		misses:      reg.Counter("dlsim_store_misses_total", "Store reads for an unknown or dropped entry."),
		writes:      reg.Counter("dlsim_store_writes_total", "Records appended."),
		writeErrors: reg.Counter("dlsim_store_write_errors_total", "Appends that failed at the filesystem."),
		compactions: reg.Counter("dlsim_store_compactions_total", "Compaction passes run."),
		dropped:     reg.Counter("dlsim_store_dropped_total", "Live entries dropped by size-bounded compaction."),
		torn:        reg.Counter("dlsim_store_torn_recovered_total", "Torn tail records truncated during replay."),
		replayed:    reg.Counter("dlsim_store_replayed_records_total", "Records scanned while rebuilding the index on open."),
		bytes:       reg.Gauge("dlsim_store_bytes", "Total on-disk size of all segment files."),
		segments:    reg.Gauge("dlsim_store_segments", "Segment files on disk."),
		entries:     reg.Gauge("dlsim_store_entries", "Live entries in the index."),
	}
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	Entries       int    `json:"entries"`
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	LiveBytes     int64  `json:"live_bytes"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Writes        uint64 `json:"writes"`
	Compactions   uint64 `json:"compactions"`
	Dropped       uint64 `json:"dropped"`
	TornRecovered uint64 `json:"torn_recovered"`
	Replayed      uint64 `json:"replayed"`
}

// Store is a disk-backed content-addressed byte store.  Safe for
// concurrent use.
type Store struct {
	dir       string
	maxBytes  int64 // <=0 means unbounded
	segTarget int64
	m         *metrics
	mu        sync.Mutex
	segs      []*segment // ascending seq; last is active
	index     map[string]recLoc
	nextSeq   uint64
	closed    bool
	onDrop    func(string)
}

// Open opens (or creates) the store in dir, rebuilding the index by
// scanning every segment and truncating a torn tail record.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	maxBytes := opts.MaxBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	segTarget := opts.SegmentBytes
	if segTarget <= 0 {
		segTarget = DefaultSegmentBytes
		if maxBytes > 0 && maxBytes/4 < segTarget {
			segTarget = maxBytes / 4
		}
	}
	if segTarget < 4096 {
		segTarget = 4096
	}
	s := &Store{
		dir:       dir,
		maxBytes:  maxBytes,
		segTarget: segTarget,
		m:         newStoreMetrics(opts.Metrics),
		index:     make(map[string]recLoc),
		nextSeq:   1,
	}

	tr := opts.Tracer.Start("store-open")
	sp := tr.Root()
	if sp != nil {
		sp.SetAttr("dir", dir)
	}

	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		seq, ok := seqOfPath(path)
		if !ok {
			continue // foreign file; leave it alone
		}
		seg, err := s.openSegment(path, seq, sp)
		if err != nil {
			s.closeAll()
			sp.End()
			return nil, err
		}
		s.segs = append(s.segs, seg)
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	if len(s.segs) == 0 {
		seg, err := s.newSegment()
		if err != nil {
			sp.End()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if sp != nil {
		sp.SetAttr("segments", strconv.Itoa(len(s.segs)))
		sp.SetAttr("entries", strconv.Itoa(len(s.index)))
		sp.SetAttr("replayed", strconv.FormatUint(s.m.replayed.Value(), 10))
		sp.SetAttr("torn_recovered", strconv.FormatUint(s.m.torn.Value(), 10))
		sp.End()
	}
	s.publishGauges()
	return s, nil
}

// seqOfPath extracts the sequence number from a segment path.
func seqOfPath(path string) (uint64, bool) {
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "seg-") || !strings.HasSuffix(base, ".seg") {
		return 0, false
	}
	seq, err := strconv.ParseUint(base[4:len(base)-4], 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016x.seg", seq))
}

// newSegment creates the next empty segment file with its magic.
func (s *Store) newSegment() (*segment, error) {
	seq := s.nextSeq
	s.nextSeq++
	path := segPath(s.dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return &segment{seq: seq, path: path, f: f, size: int64(len(magic))}, nil
}

// openSegment opens an existing segment, replays its records into the
// index (last write wins, tombstones delete) and truncates a torn
// tail.  sp, when non-nil, gets one child span per segment.
func (s *Store) openSegment(path string, seq uint64, sp *telemetry.Span) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	seg := &segment{seq: seq, path: path, f: f}
	child := sp.Child("replay-segment")
	if child != nil {
		child.SetAttr("path", filepath.Base(path))
	}
	defer child.End()

	size := fi.Size()
	if size < int64(len(magic)) {
		// A segment torn before its header finished: reset it.
		if err := s.resetSegment(seg); err != nil {
			f.Close()
			return nil, err
		}
		s.m.torn.Inc()
		return seg, nil
	}
	hdr := make([]byte, len(magic))
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if string(hdr) != magic {
		f.Close()
		return nil, fmt.Errorf("store: %s: bad magic %q", path, hdr)
	}

	off := int64(len(magic))
	var buf [headerLen]byte
	records := 0
	for off < size {
		if size-off < headerLen {
			break // torn header
		}
		if _, err := f.ReadAt(buf[:], off); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		bodyLen := int64(binary.LittleEndian.Uint32(buf[0:4]))
		wantCRC := binary.LittleEndian.Uint32(buf[4:8])
		if bodyLen < 3 || bodyLen > MaxPayloadLen+3+MaxIDLen || off+headerLen+bodyLen > size {
			break // implausible length or body runs past EOF: torn
		}
		body := make([]byte, bodyLen)
		if _, err := f.ReadAt(body, off+headerLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			break // corrupt or torn body
		}
		flags := body[0]
		idLen := int(binary.LittleEndian.Uint16(body[1:3]))
		if idLen == 0 || idLen > MaxIDLen || int64(3+idLen) > bodyLen {
			break
		}
		id := string(body[3 : 3+idLen])
		recSize := headerLen + bodyLen
		if prev, ok := s.index[id]; ok {
			prev.seg.live -= prev.size
		}
		if flags&flagTombstone != 0 {
			delete(s.index, id)
		} else {
			s.index[id] = recLoc{seg: seg, off: off, size: recSize}
			seg.live += recSize
		}
		off += recSize
		records++
	}
	s.m.replayed.Add(uint64(records))
	if child != nil {
		child.SetAttr("records", strconv.Itoa(records))
	}
	if off < size {
		// Torn tail: drop the partial record, keep everything intact
		// before it.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		s.m.torn.Inc()
		if child != nil {
			child.SetAttr("torn_at", strconv.FormatInt(off, 10))
		}
	}
	seg.size = off
	return seg, nil
}

// resetSegment truncates a segment to an empty, valid state.
func (s *Store) resetSegment(seg *segment) error {
	if err := seg.f.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := seg.f.WriteAt([]byte(magic), 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg.size = int64(len(magic))
	seg.live = 0
	return nil
}

func (s *Store) closeAll() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

// OnDrop registers fn to receive the ID of every live entry dropped
// by size-bounded compaction, called outside the store's lock.  The
// serving layer uses it to remember "gone" IDs for 410 responses.
func (s *Store) OnDrop(fn func(id string)) {
	s.mu.Lock()
	s.onDrop = fn
	s.mu.Unlock()
}

// encodeRecord builds one on-disk record (flags zero: a put).
func encodeRecord(id string, payload []byte) []byte {
	bodyLen := 3 + len(id) + len(payload)
	rec := make([]byte, headerLen+bodyLen)
	body := rec[headerLen:]
	binary.LittleEndian.PutUint16(body[1:3], uint16(len(id)))
	copy(body[3:], id)
	copy(body[3+len(id):], payload)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(bodyLen))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
	return rec
}

// Put stores payload under id, superseding any previous record with
// the same id.  The append lands in the OS page cache; durability is
// established by Snapshot/Close (or sooner by the OS).  Exceeding the
// size bound triggers compaction inline.
func (s *Store) Put(id string, payload []byte) error {
	if len(id) == 0 || len(id) > MaxIDLen {
		return ErrIDTooLong
	}
	if len(payload) > MaxPayloadLen {
		return ErrPayloadTooLarge
	}
	s.mu.Lock()
	dropped, err := s.putLocked(id, payload)
	fn := s.onDrop
	s.mu.Unlock()
	if fn != nil {
		for _, id := range dropped {
			fn(id)
		}
	}
	return err
}

// putLocked appends one record and runs compaction if the bound is
// exceeded, returning the IDs compaction dropped.  Caller holds s.mu.
func (s *Store) putLocked(id string, payload []byte) ([]string, error) {
	if s.closed {
		return nil, ErrClosed
	}
	rec := encodeRecord(id, payload)
	active := s.segs[len(s.segs)-1]
	if _, err := active.f.WriteAt(rec, active.size); err != nil {
		s.m.writeErrors.Inc()
		return nil, fmt.Errorf("store: %w", err)
	}
	if prev, ok := s.index[id]; ok {
		prev.seg.live -= prev.size
	}
	s.index[id] = recLoc{seg: active, off: active.size, size: int64(len(rec))}
	active.size += int64(len(rec))
	active.live += int64(len(rec))
	s.m.writes.Inc()

	var dropped []string
	var err error
	if active.size >= s.segTarget {
		if serr := s.rotateLocked(); serr != nil && err == nil {
			err = serr
		}
	}
	if s.maxBytes > 0 && s.totalBytesLocked() > s.maxBytes {
		dropped, err = s.compactLocked()
	}
	s.publishGauges()
	return dropped, err
}

// rotateLocked seals the active segment (fsync) and starts a new one.
func (s *Store) rotateLocked() error {
	active := s.segs[len(s.segs)-1]
	if err := active.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg, err := s.newSegment()
	if err != nil {
		return err
	}
	s.segs = append(s.segs, seg)
	return nil
}

func (s *Store) totalBytesLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

func (s *Store) liveBytesLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.live
	}
	return n
}

// compactLocked rewrites live records into fresh segments in append
// order, dropping dead bytes; if the live set alone exceeds the
// bound, the oldest live entries are dropped first and their IDs
// returned.  New segments are written and fsynced before the old
// files are removed, so a crash mid-compaction loses nothing (it can
// only resurrect dropped entries, which replay then re-drops on the
// next overflow).
func (s *Store) compactLocked() ([]string, error) {
	type entry struct {
		id  string
		loc recLoc
	}
	entries := make([]entry, 0, len(s.index))
	for id, loc := range s.index {
		entries = append(entries, entry{id, loc})
	}
	// Append order: segment sequence, then offset.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].loc, entries[j].loc
		if a.seg.seq != b.seg.seq {
			return a.seg.seq < b.seg.seq
		}
		return a.off < b.off
	})

	liveTotal := s.liveBytesLocked()
	// Budget the live set below the bound, leaving headroom for the
	// per-segment magic of the rewritten files.
	budget := s.maxBytes - int64(len(magic))*(liveTotal/s.segTarget+1)
	var dropped []string
	for len(entries) > 0 && liveTotal > budget {
		e := entries[0]
		entries = entries[1:]
		liveTotal -= e.loc.size
		delete(s.index, e.id)
		dropped = append(dropped, e.id)
	}
	s.m.dropped.Add(uint64(len(dropped)))

	// Rewrite survivors into fresh segments.
	var newSegs []*segment
	fail := func(err error) ([]string, error) {
		for _, seg := range newSegs {
			seg.f.Close()
			os.Remove(seg.path)
		}
		return dropped, err
	}
	cur, err := s.newSegment()
	if err != nil {
		return fail(err)
	}
	newSegs = append(newSegs, cur)
	for _, e := range entries {
		rec := make([]byte, e.loc.size)
		if _, err := e.loc.seg.f.ReadAt(rec, e.loc.off); err != nil {
			return fail(fmt.Errorf("store: compaction read: %w", err))
		}
		if cur.size+int64(len(rec)) > s.segTarget && cur.size > int64(len(magic)) {
			if err := cur.f.Sync(); err != nil {
				return fail(fmt.Errorf("store: %w", err))
			}
			cur, err = s.newSegment()
			if err != nil {
				return fail(err)
			}
			newSegs = append(newSegs, cur)
		}
		if _, err := cur.f.WriteAt(rec, cur.size); err != nil {
			return fail(fmt.Errorf("store: compaction write: %w", err))
		}
		s.index[e.id] = recLoc{seg: cur, off: cur.size, size: int64(len(rec))}
		cur.size += int64(len(rec))
		cur.live += int64(len(rec))
	}
	for _, seg := range newSegs {
		if err := seg.f.Sync(); err != nil {
			return fail(fmt.Errorf("store: %w", err))
		}
	}
	if err := s.syncDir(); err != nil {
		return fail(err)
	}
	// Point of no return: retire the old files.
	old := s.segs
	s.segs = newSegs
	for _, seg := range old {
		seg.f.Close()
		os.Remove(seg.path)
	}
	s.m.compactions.Inc()
	return dropped, nil
}

// Get returns the payload stored under id.  The returned slice is
// freshly allocated and owned by the caller.
func (s *Store) Get(id string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	loc, ok := s.index[id]
	if !ok {
		s.m.misses.Inc()
		return nil, false, nil
	}
	rec := make([]byte, loc.size)
	if _, err := loc.seg.f.ReadAt(rec, loc.off); err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	body := rec[headerLen:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rec[4:8]) {
		return nil, false, fmt.Errorf("store: %s: checksum mismatch reading %q (bit rot?)", loc.seg.path, id)
	}
	idLen := int(binary.LittleEndian.Uint16(body[1:3]))
	s.m.hits.Inc()
	payload := make([]byte, len(body)-3-idLen)
	copy(payload, body[3+idLen:])
	return payload, true, nil
}

// Has reports whether id is live in the index, without counting a hit
// or miss.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[id]
	return ok
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Snapshot flushes the active segment (and the directory entry) to
// stable storage.  Sealed segments were synced at rotation.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	active := s.segs[len(s.segs)-1]
	if err := active.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.syncDir()
}

func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, io.EOF) {
		// Some filesystems reject directory fsync; the segment fsync
		// above is the load-bearing one.
		return nil
	}
	return nil
}

// Close snapshots and closes every segment.  Further operations
// return ErrClosed.  Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.snapshotLocked()
	s.closeAll()
	s.closed = true
	return err
}

// Stats reads the store's counters (its telemetry instruments) and
// sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:       len(s.index),
		Segments:      len(s.segs),
		Bytes:         s.totalBytesLocked(),
		LiveBytes:     s.liveBytesLocked(),
		Hits:          s.m.hits.Value(),
		Misses:        s.m.misses.Value(),
		Writes:        s.m.writes.Value(),
		Compactions:   s.m.compactions.Value(),
		Dropped:       s.m.dropped.Value(),
		TornRecovered: s.m.torn.Value(),
		Replayed:      s.m.replayed.Value(),
	}
}

// publishGauges mirrors sizes into the telemetry gauges.  Caller
// holds s.mu.
func (s *Store) publishGauges() {
	s.m.bytes.Set(s.totalBytesLocked())
	s.m.segments.Set(int64(len(s.segs)))
	s.m.entries.Set(int64(len(s.index)))
}
