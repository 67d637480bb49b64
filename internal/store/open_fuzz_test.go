package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// FuzzStoreOpen writes arbitrary bytes as a store's only segment file
// and opens the store.  Open must not panic.  It must reject the file
// exactly when a full-length magic is wrong.  Otherwise it must surface
// exactly the records that replayRef decodes, each with a valid CRC.
// Reopening the recovered directory must yield the same records and
// find nothing left to recover.  The committed corpus holds
// crash_test.go's torn and corrupt segments.
//
//	go test -run '^$' -fuzz '^FuzzStoreOpen$' -fuzztime 30s ./internal/store/
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		want, ok := replayRef(seg)
		s, err := Open(dir, Options{})
		if err != nil {
			if ok {
				t.Fatalf("Open rejected a segment with a valid magic: %v", err)
			}
			return
		}
		if !ok {
			s.Close()
			t.Fatal("Open accepted a segment with a corrupt magic")
		}
		checkRecords(t, "open", s, want)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = open(t, dir, Options{})
		checkRecords(t, "reopen", s, want)
		if st := s.Stats(); st.TornRecovered != 0 {
			t.Fatalf("reopen recovered %d torn records from a recovered directory", st.TornRecovered)
		}
	})
}

// replayRef decodes a segment file the way Open must, independently of
// it: records from the magic on, stopping at the first torn or corrupt
// one; the last write of an ID wins and a tombstone deletes it.  ok is
// false when the file holds a full-length magic that is wrong; a file
// shorter than the magic is an empty segment.
func replayRef(seg []byte) (records map[string][]byte, ok bool) {
	records = map[string][]byte{}
	if len(seg) < len(magic) {
		return records, true
	}
	if string(seg[:len(magic)]) != magic {
		return nil, false
	}
	for b := seg[len(magic):]; len(b) >= headerLen; {
		n := int(binary.LittleEndian.Uint32(b))
		if n < 3 || n > len(b)-headerLen {
			break
		}
		body := b[headerLen : headerLen+n]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4:]) {
			break
		}
		idLen := int(binary.LittleEndian.Uint16(body[1:]))
		if idLen == 0 || idLen > MaxIDLen || 3+idLen > n {
			break
		}
		id := string(body[3 : 3+idLen])
		if body[0]&flagTombstone != 0 {
			delete(records, id)
		} else {
			records[id] = body[3+idLen:]
		}
		b = b[headerLen+n:]
	}
	return records, true
}

// checkRecords checks that s holds exactly want, reading each record
// through Get, which verifies its CRC again.
func checkRecords(t *testing.T, label string, s *Store, want map[string][]byte) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: %d records, want %d", label, s.Len(), len(want))
	}
	for id, payload := range want {
		got, ok, err := s.Get(id)
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s: Get(%q) = %q, %v, %v; want %q", label, id, got, ok, err, payload)
		}
	}
}
