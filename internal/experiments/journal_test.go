package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ndpgpu/internal/stats"
)

func testOutcome(timePS int64) *outcome {
	st := stats.New()
	st.SMCycles = timePS
	return &outcome{Stats: st, TimePS: timePS}
}

// openTestJournal opens and replays the journal under dir, failing the test
// on any error.
func openTestJournal(t *testing.T, dir string) (*journal, map[string]*outcome) {
	t.Helper()
	j, memo, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, memo
}

func mustAppend(t *testing.T, j *journal, key string, timePS int64) {
	t.Helper()
	if err := j.append(key, testOutcome(timePS)); err != nil {
		t.Fatalf("append %s: %v", key, err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// countRecords walks the journal file under dir frame by frame and returns
// how many intact records it holds, duplicates included.
func countRecords(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for off := len(journalMagic); off+8 <= len(data); n++ {
		size := int(binary.LittleEndian.Uint32(data[off:]))
		if off+8+size > len(data) {
			break
		}
		off += 8 + size
	}
	return n
}

// wantReplay reopens the journal under dir and requires it to hold exactly
// the given key -> TimePS records.
func wantReplay(t *testing.T, dir string, want map[string]int64) {
	t.Helper()
	j, memo := openTestJournal(t, dir)
	j.close()
	if len(memo) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(memo), len(want))
	}
	for key, ps := range want {
		got, ok := memo[key]
		if !ok {
			t.Fatalf("replay lost %s", key)
		}
		if got.TimePS != ps || got.Stats == nil || got.Stats.SMCycles != ps {
			t.Fatalf("replayed %s = %+v, want TimePS %d", key, got, ps)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, memo := openTestJournal(t, dir)
	if len(memo) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(memo))
	}
	want := map[string]int64{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%03d", i)
		mustAppend(t, j, key, int64(i))
		want[key] = int64(i)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	wantReplay(t, dir, want)

	// Appends continue after a replay of existing records.
	j2, _ := openTestJournal(t, dir)
	mustAppend(t, j2, "post-replay", 99)
	j2.close()
	want["post-replay"] = 99
	wantReplay(t, dir, want)
}

func TestJournalAppendAfterClose(t *testing.T) {
	j, _ := openTestJournal(t, t.TempDir())
	j.close()
	if err := j.append("k", testOutcome(1)); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestJournalTornTail: garbage after the last intact record — a kill -9
// mid-write — is truncated on replay, so the next replay sees no damage.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	want := map[string]int64{}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key-%d", i)
		mustAppend(t, j, key, int64(i))
		want[key] = int64(i)
	}
	j.close()

	path := filepath.Join(dir, journalFileName)
	clean := fileSize(t, path)
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

		wantReplay(t, dir, want)
		if size := fileSize(t, path); size != clean {
			t.Fatalf("%s: journal is %d bytes after replay, want the clean %d", tc.name, size, clean)
		}
	}
}

// TestJournalCorruptRecord: a flipped byte inside a record invalidates its
// CRC; replay keeps everything before it and drops it and everything after
// (the checksum chain cannot vouch for what follows a corrupt frame).
func TestJournalCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	var offsets []int64 // file offset of each record's frame
	path := filepath.Join(dir, journalFileName)
	for i := 0; i < 5; i++ {
		offsets = append(offsets, fileSize(t, path))
		mustAppend(t, j, fmt.Sprintf("key-%d", i), int64(i))
	}
	j.close()

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

	wantReplay(t, dir, map[string]int64{"key-0": 0, "key-1": 1})
	if size := fileSize(t, path); size != offsets[2] {
		t.Fatalf("corrupt record not truncated: journal is %d bytes, want %d", size, offsets[2])
	}
}

func TestJournalBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFileName), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if j, _, err := openJournal(dir); err == nil {
		j.close()
		t.Fatal("openJournal accepted a file with the wrong magic")
	}
}

// TestJournalDuplicateKeys: a key appended twice (two processes missing the
// same run) keeps its first record.
func TestJournalDuplicateKeys(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	mustAppend(t, j, "dup", 1)
	mustAppend(t, j, "other", 2)
	mustAppend(t, j, "dup", 999)
	j.close()
	wantReplay(t, dir, map[string]int64{"dup": 1, "other": 2})
}

// TestJournalSharedDirectory: two sweeps that share one cache directory
// both keep every record they acknowledged. Without O_APPEND the second
// process writes at the offset where it opened the file, over the first
// process's record.
func TestJournalSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, _ := openTestJournal(t, dir)
	b, _ := openTestJournal(t, dir)
	mustAppend(t, a, "key-a", 1)
	mustAppend(t, b, "key-b", 2)
	mustAppend(t, a, "key-c", 3)
	a.close()
	b.close()
	wantReplay(t, dir, map[string]int64{"key-a": 1, "key-b": 2, "key-c": 3})
}

// TestJournalReadsOldRecords: records written by earlier builds, which also
// stored the flattened digest, the energy and the wall time, still replay.
func TestJournalReadsOldRecords(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"key":"old","outcome":{"digest":{"TimePS":7},"stats":{"SMCycles":7},` +
		`"time_ps":7,"energy_pj":1.5,"wall_ns":1000}}`)
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	data := append([]byte(journalMagic), append(frame, payload...)...)
	if err := os.WriteFile(filepath.Join(dir, journalFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantReplay(t, dir, map[string]int64{"old": 7})
}

// TestJournalGroupCommit: every concurrently appended record is durable and
// replayed. Run under -race (make check).
func TestJournalGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	const writers, each = 16, 4
	var mu sync.Mutex
	want := map[string]int64{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%02d-%02d", w, i)
				ps := int64(w*100 + i)
				if err := j.append(key, testOutcome(ps)); err != nil {
					t.Errorf("append %s: %v", key, err)
					continue
				}
				mu.Lock()
				want[key] = ps
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	j.close()
	if len(want) != writers*each {
		t.Fatalf("acknowledged %d appends, want %d", len(want), writers*each)
	}
	wantReplay(t, dir, want)
}
