package serve

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testOutcome(key string, timePS int64) *Outcome {
	return &Outcome{
		Digest:   map[string]float64{"TimePS": float64(timePS), "Key": float64(len(key))},
		TimePS:   timePS,
		EnergyPJ: 7.5,
	}
}

// openReplayed opens a journal under dir and replays it, failing the test on
// any error.
func openReplayed(t *testing.T, dir string) (*Journal, map[string]*Outcome, ReplayStats) {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := j.Replay()
	if err != nil {
		j.Close()
		t.Fatal(err)
	}
	return j, out, st
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, out, st := openReplayed(t, dir)
	if len(out) != 0 || st.Records != 0 {
		t.Fatalf("fresh journal replayed %d records", st.Records)
	}
	const n = 20
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if err := j.Append(key, testOutcome(key, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	js := j.Stats()
	if js.Appends != n || js.Failures != 0 {
		t.Fatalf("stats after %d appends: %+v", n, js)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}

	j2, out2, st2 := openReplayed(t, dir)
	defer j2.Close()
	if st2.Records != n || st2.TruncatedBytes != 0 || st2.Duplicates != 0 || st2.Compacted {
		t.Fatalf("clean replay: %+v", st2)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", i)
		got, ok := out2[key]
		if !ok {
			t.Fatalf("replay lost %s", key)
		}
		if got.TimePS != int64(i) || got.Digest["TimePS"] != float64(i) {
			t.Fatalf("replayed %s = %+v", key, got)
		}
	}
	// Appends continue after a replay of existing records.
	if err := j2.Append("post-replay", testOutcome("post-replay", 99)); err != nil {
		t.Fatal(err)
	}
}

func TestJournalAppendBeforeReplay(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append("k", testOutcome("k", 1)); err == nil {
		t.Fatal("Append before Replay succeeded")
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	j, _, _ := openReplayed(t, t.TempDir())
	j.Close()
	if err := j.Append("k", testOutcome("k", 1)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

// TestJournalTornTail: garbage after the last intact record — a kill -9
// mid-write — is truncated on replay and the file compacted clean, so the
// next replay sees no damage.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openReplayed(t, dir)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := j.Append(key, testOutcome(key, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, journalFileName)
	torn := []struct {
		name string
		tail []byte
	}{
		{"partial header", []byte{0x10, 0x00}},
		{"header without payload", func() []byte {
			h := make([]byte, 8)
			binary.LittleEndian.PutUint32(h, 64) // promises 64 bytes, delivers none
			return h
		}()},
		{"random garbage", []byte("\x00\x99garbage mid-write from a dying process")},
	}
	for _, tc := range torn {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tc.tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		j2, out, st := openReplayed(t, dir)
		j2.Close()
		if st.Records != 5 || len(out) != 5 {
			t.Fatalf("%s: recovered %d records, want 5", tc.name, st.Records)
		}
		if st.TruncatedBytes != int64(len(tc.tail)) {
			t.Fatalf("%s: truncated %d bytes, want %d", tc.name, st.TruncatedBytes, len(tc.tail))
		}
		if !st.Compacted {
			t.Fatalf("%s: torn tail did not trigger compaction", tc.name)
		}

		// Third open: the compaction left a clean file.
		j3, _, st3 := openReplayed(t, dir)
		j3.Close()
		if st3.TruncatedBytes != 0 || st3.Compacted {
			t.Fatalf("%s: replay after compaction still found damage: %+v", tc.name, st3)
		}
	}
}

// TestJournalCorruptRecord: a flipped byte inside a record invalidates its
// CRC; replay keeps everything before it and drops it and everything after
// (the checksum chain cannot vouch for what follows a corrupt frame).
func TestJournalCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openReplayed(t, dir)
	var offsets []int64 // file offset of each record's frame
	path := filepath.Join(dir, journalFileName)
	for i := 0; i < 5; i++ {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, st.Size())
		key := fmt.Sprintf("key-%d", i)
		if err := j.Append(key, testOutcome(key, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Flip one payload byte in record 2.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pos := offsets[2] + 8 + 4 // past the frame header, into the payload
	buf := []byte{0}
	if _, err := f.ReadAt(buf, pos); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, pos); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, out, st := openReplayed(t, dir)
	j2.Close()
	if st.Records != 2 {
		t.Fatalf("recovered %d records past a corrupt frame, want 2", st.Records)
	}
	for _, key := range []string{"key-0", "key-1"} {
		if _, ok := out[key]; !ok {
			t.Fatalf("replay lost intact record %s", key)
		}
	}
	if _, ok := out["key-2"]; ok {
		t.Fatal("replay accepted a corrupt record")
	}
	if st.TruncatedBytes == 0 || !st.Compacted {
		t.Fatalf("corruption not truncated/compacted: %+v", st)
	}
}

func TestJournalBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFileName), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, _, err := j.Replay(); err == nil {
		t.Fatal("Replay accepted a file with the wrong magic")
	}
}

// TestJournalDuplicateCompaction: duplicate keys (possible when a journal
// from before a compaction crash is replayed) keep the first record and
// trigger a rewrite.
func TestJournalDuplicateCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openReplayed(t, dir)
	if err := j.Append("dup", testOutcome("dup", 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("other", testOutcome("other", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("dup", testOutcome("dup", 999)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, out, st := openReplayed(t, dir)
	j2.Close()
	if st.Records != 2 || st.Duplicates != 1 || !st.Compacted {
		t.Fatalf("duplicate replay: %+v", st)
	}
	if out["dup"].TimePS != 1 {
		t.Fatalf("duplicate resolution kept the later record (TimePS=%d), want first-wins", out["dup"].TimePS)
	}
	j3, _, st3 := openReplayed(t, dir)
	j3.Close()
	if st3.Duplicates != 0 || st3.Compacted {
		t.Fatalf("compaction left duplicates: %+v", st3)
	}
}

// TestJournalGroupCommit: concurrent appends are durable and the fsync count
// stays at or below the append count (batches amortize the sync).
func TestJournalGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, _, _ := openReplayed(t, dir)
	const writers, each = 32, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%02d-%02d", w, i)
				if err := j.Append(key, testOutcome(key, int64(w*100+i))); err != nil {
					t.Errorf("append %s: %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()
	js := j.Stats()
	if js.Appends != writers*each {
		t.Fatalf("acknowledged %d appends, want %d", js.Appends, writers*each)
	}
	if js.Syncs > js.Appends {
		t.Fatalf("syncs %d > appends %d: group commit not batching", js.Syncs, js.Appends)
	}
	j.Close()

	j2, out, st := openReplayed(t, dir)
	j2.Close()
	if st.Records != writers*each || st.TruncatedBytes != 0 {
		t.Fatalf("replay after concurrent appends: %+v", st)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			key := fmt.Sprintf("w%02d-%02d", w, i)
			if got, ok := out[key]; !ok || got.TimePS != int64(w*100+i) {
				t.Fatalf("lost or mangled %s: %+v", key, got)
			}
		}
	}
}
