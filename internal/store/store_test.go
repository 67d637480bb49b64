package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, id string, payload []byte) {
	t.Helper()
	if err := s.Put(id, payload); err != nil {
		t.Fatalf("Put(%q): %v", id, err)
	}
}

func mustGet(t *testing.T, s *Store, id string) []byte {
	t.Helper()
	b, ok, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get(%q): %v", id, err)
	}
	if !ok {
		t.Fatalf("Get(%q): missing", id)
	}
	return b
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	mustPut(t, s, "a", []byte("hello"))
	mustPut(t, s, "b", []byte{})
	mustPut(t, s, "c", []byte("世界"))
	if got := mustGet(t, s, "a"); string(got) != "hello" {
		t.Fatalf("a = %q", got)
	}
	if got := mustGet(t, s, "b"); len(got) != 0 {
		t.Fatalf("b = %q, want empty", got)
	}
	if got := mustGet(t, s, "c"); string(got) != "世界" {
		t.Fatalf("c = %q", got)
	}
	if _, ok, _ := s.Get("nope"); ok {
		t.Fatal("Get(nope) found something")
	}
	st := s.Stats()
	if st.Entries != 3 || st.Writes != 3 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverwriteLastWins(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	mustPut(t, s, "k", []byte("v1"))
	mustPut(t, s, "k", []byte("v2"))
	if got := mustGet(t, s, "k"); string(got) != "v2" {
		t.Fatalf("k = %q, want v2", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Close()

	// Last write must also win across a replay.
	s2 := open(t, dir, Options{})
	if got := mustGet(t, s2, "k"); string(got) != "v2" {
		t.Fatalf("after reopen k = %q, want v2", got)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	want := map[string]string{}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("id-%03d", i)
		val := fmt.Sprintf("payload-%d", i*i)
		want[id] = val
		mustPut(t, s, id, []byte(val))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := open(t, dir, Options{})
	if s2.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s2.Len(), len(want))
	}
	for id, val := range want {
		if got := mustGet(t, s2, id); string(got) != val {
			t.Fatalf("%s = %q, want %q", id, got, val)
		}
	}
	if st := s2.Stats(); st.Replayed != 100 {
		t.Fatalf("replayed = %d, want 100", st.Replayed)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: -1, SegmentBytes: 4096})
	payload := make([]byte, 512)
	for i := 0; i < 40; i++ {
		mustPut(t, s, fmt.Sprintf("id-%02d", i), payload)
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("segments = %d, want several after 20KB of writes at a 4KB target", st.Segments)
	}
	// Every entry must remain readable across rotations and a replay.
	s.Close()
	s2 := open(t, dir, Options{MaxBytes: -1, SegmentBytes: 4096})
	for i := 0; i < 40; i++ {
		mustGet(t, s2, fmt.Sprintf("id-%02d", i))
	}
}

func TestCompactionDropsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 64 << 10, SegmentBytes: 8 << 10})
	payload := make([]byte, 1024)
	// Rewriting one key over and over generates dead bytes; the live
	// set stays tiny, so compaction must reclaim without dropping.
	for i := 0; i < 200; i++ {
		mustPut(t, s, "hot", payload)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 200KB of dead writes into a 64KB bound: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("compaction dropped %d live entries; live set was one key", st.Dropped)
	}
	if st.Bytes > 64<<10 {
		t.Fatalf("bytes = %d, want <= bound after compaction", st.Bytes)
	}
	if got := mustGet(t, s, "hot"); len(got) != 1024 {
		t.Fatalf("hot payload corrupted by compaction: %d bytes", len(got))
	}
}

func TestCompactionDropsOldestWhenLiveExceedsBound(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var dropped []string
	s := open(t, dir, Options{MaxBytes: 16 << 10, SegmentBytes: 4 << 10})
	s.OnDrop(func(id string) {
		mu.Lock()
		dropped = append(dropped, id)
		mu.Unlock()
	})
	payload := make([]byte, 1024)
	n := 40
	for i := 0; i < n; i++ {
		mustPut(t, s, fmt.Sprintf("id-%02d", i), payload)
	}
	mu.Lock()
	nd := len(dropped)
	mu.Unlock()
	if nd == 0 {
		t.Fatal("no drops despite live set exceeding the bound")
	}
	// Oldest entries drop first; the most recent write must survive.
	last := fmt.Sprintf("id-%02d", n-1)
	if !s.Has(last) {
		t.Fatalf("most recent entry %s was dropped", last)
	}
	mu.Lock()
	first := dropped[0]
	for _, id := range dropped {
		if !s.Has(id) {
			continue
		}
		mu.Unlock()
		t.Fatalf("dropped id %s still present", id)
	}
	mu.Unlock()
	if first != "id-00" {
		t.Fatalf("first drop = %s, want id-00 (oldest first)", first)
	}
	if st := s.Stats(); st.Bytes > 16<<10 {
		t.Fatalf("bytes = %d, want <= 16KB bound", st.Bytes)
	}
	// Old segment files must actually be gone from disk.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	var total int64
	for _, p := range names {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > 16<<10 {
		t.Fatalf("on-disk bytes = %d, want <= bound", total)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	mustPut(t, s, "a", []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put("b", []byte("y")); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, _, err := s.Get("a"); err != ErrClosed {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if err := s.Snapshot(); err != ErrClosed {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}
}

func TestRejectsOversizedInputs(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	longID := string(make([]byte, MaxIDLen+1))
	if err := s.Put(longID, nil); err != ErrIDTooLong {
		t.Fatalf("long id: %v", err)
	}
	if err := s.Put("", nil); err != ErrIDTooLong {
		t.Fatalf("empty id: %v", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxBytes: 256 << 10, SegmentBytes: 16 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("g%d-i%d", g, i)
				if err := s.Put(id, []byte(id)); err != nil {
					t.Error(err)
					return
				}
				if b, ok, err := s.Get(id); err != nil || !ok || string(b) != id {
					t.Errorf("Get(%s) = %q %v %v", id, b, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := open(t, t.TempDir(), Options{Metrics: reg})
	mustPut(t, s, "a", []byte("x"))
	mustGet(t, s, "a")
	s.Get("missing")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dlsim_store_hits_total 1",
		"dlsim_store_misses_total 1",
		"dlsim_store_writes_total 1",
		"dlsim_store_entries 1",
		"dlsim_store_segments 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestOpenReplaySpan(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	mustPut(t, s, "a", []byte("x"))
	s.Close()

	tracer := telemetry.NewTracer(8)
	open(t, dir, Options{Tracer: tracer})
	tr, ok := tracer.Get("store-open")
	if !ok {
		t.Fatal("no store-open trace recorded")
	}
	if tr.ID() != "store-open" {
		t.Fatalf("trace id = %q", tr.ID())
	}
}
