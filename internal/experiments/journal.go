package experiments

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ndpgpu/internal/stats"
)

// Journal file layout (results.journal in the cache directory):
//
//	"ndpjournal-v1\n"                    file magic
//	repeat:
//	  uint32 LE  payload length
//	  uint32 LE  CRC-32C (Castagnoli) of the payload
//	  payload    JSON {"key": ..., "outcome": {...}}
//
// Every append writes its record and fsyncs it before returning. Opening
// replays the file, stops at the first record that fails its length,
// checksum or JSON check, and truncates the file there (a torn tail from
// kill -9 mid-write), so the journal is always a clean prefix of
// acknowledged records. A key appended twice keeps its first record.
//
// The file is opened O_APPEND, so sweeps in two processes may share one
// cache directory: each record lands at the end of the file, whoever wrote
// last. One window remains. A process that opens the journal while another
// is in the middle of a write sees that record as a torn tail and truncates
// it; the run is lost from the journal and simulated again on its next miss.
const (
	journalMagic    = "ndpjournal-v1\n"
	journalFileName = "results.journal"
	// maxJournalRecord bounds one record (a statistics bundle is ~2 KB); a
	// bigger length prefix means a torn or corrupt header.
	maxJournalRecord = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// outcome is what a cache hit rebuilds its Run from. Energy is a pure
// function of (stats, config, mode) and is recomputed, not stored. Records
// written by earlier builds carry more fields; decoding ignores them.
type outcome struct {
	Stats  *stats.Stats `json:"stats"`
	TimePS int64        `json:"time_ps"`
}

// journalRecord is the persisted form of one memoized result.
type journalRecord struct {
	Key     string   `json:"key"`
	Outcome *outcome `json:"outcome"`
}

// journal is the append-only, checksummed store of (run key -> outcome)
// records behind the run cache.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (creating if needed) the journal under dir and replays
// it. The returned map is the warm cache.
func openJournal(dir string) (*journal, map[string]*outcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("run cache: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("run cache: opening journal: %w", err)
	}
	memo, err := replay(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{f: f}, memo, nil
}

// replay reads every intact record of f, truncating any torn tail, and
// writes the magic into an empty file.
func replay(f *os.File, path string) (map[string]*outcome, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	memo := make(map[string]*outcome)
	if size == 0 {
		if _, err := f.WriteString(journalMagic); err != nil {
			return nil, fmt.Errorf("run cache: initializing journal: %w", err)
		}
		return memo, f.Sync()
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	r := bufio.NewReader(f)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != journalMagic {
		return nil, fmt.Errorf("run cache: %s is not an ndpjournal-v1 file", path)
	}
	good := int64(len(journalMagic))
	header := make([]byte, 8)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			break // clean EOF or torn header: stop at the last good record
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		if n == 0 || n > maxJournalRecord {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(header[4:8]) {
			break
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" ||
			rec.Outcome == nil || rec.Outcome.Stats == nil {
			break
		}
		good += int64(8 + len(payload))
		if _, dup := memo[rec.Key]; !dup {
			memo[rec.Key] = rec.Outcome
		}
	}
	if size > good {
		if err := f.Truncate(good); err != nil {
			return nil, fmt.Errorf("run cache: truncating torn journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
	}
	return memo, nil
}

// append persists one result and returns once it is written and fsynced.
func (j *journal) append(key string, out *outcome) error {
	payload, err := json.Marshal(journalRecord{Key: key, Outcome: out})
	if err != nil {
		return fmt.Errorf("run cache: encoding journal record: %w", err)
	}
	if len(payload) > maxJournalRecord {
		return fmt.Errorf("run cache: journal record too large (%d bytes)", len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[8:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("run cache: %w", err)
	}
	return j.f.Sync()
}

// close closes the journal file; later appends fail.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
