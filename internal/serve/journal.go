// Package serve holds the two pieces of the retired simulation service that
// memoized re-sweeps still use: the canonical run request, whose content
// digest keys a result, and the checksummed append-only journal that stores
// results under that key. ndpsweep -cache (internal/experiments) is their
// only user.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ndpgpu/internal/stats"
)

// Outcome is one completed simulation, in the golden-digest format: the
// flattened counter digest (stats.Digest plus TimePS and EnergyTotalPJ) and
// the full statistics bundle a cache hit rebuilds its Run from.
type Outcome struct {
	Digest   map[string]float64 `json:"digest"`
	Stats    *stats.Stats       `json:"stats,omitempty"`
	TimePS   int64              `json:"time_ps"`
	EnergyPJ float64            `json:"energy_pj"`
	Wall     time.Duration      `json:"wall_ns"` // simulation wall time (cold)
}

// Journal file layout (results.journal in the cache directory):
//
//	"ndpjournal-v1\n"                    file magic
//	repeat:
//	  uint32 LE  payload length
//	  uint32 LE  CRC-32C (Castagnoli) of the payload
//	  payload    JSON {"key": ..., "outcome": {...}}
//
// Appends are group-committed: a dedicated writer drains every pending
// record, writes them in one syscall, and issues a single fsync before
// acknowledging the batch — Append returns only once the record is durable,
// and concurrent appends amortize the fsync. Replay stops at the first
// record that fails its length, checksum, or JSON check and truncates the
// file there (a torn tail from kill -9 mid-write), so the journal is always
// a clean prefix of acknowledged records.
const (
	journalMagic    = "ndpjournal-v1\n"
	journalFileName = "results.journal"
	// maxJournalRecord bounds one record (a full stats bundle is ~10s of KB);
	// a bigger length prefix means a torn or corrupt header.
	maxJournalRecord = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrJournalClosed rejects appends after Close.
var ErrJournalClosed = errors.New("serve: journal closed")

// journalRecord is the persisted form of one memoized result.
type journalRecord struct {
	Key     string   `json:"key"`
	Outcome *Outcome `json:"outcome"`
}

// ReplayStats summarizes one journal replay.
type ReplayStats struct {
	Records        int     `json:"records"`         // live records recovered
	Duplicates     int     `json:"duplicates"`      // dropped duplicate keys
	Bytes          int64   `json:"bytes"`           // file size after recovery
	TruncatedBytes int64   `json:"truncated_bytes"` // torn tail cut off
	Compacted      bool    `json:"compacted"`       // file rewritten during recovery
	ReplayMS       float64 `json:"replay_ms"`
}

// JournalStats is the journal's append accounting.
type JournalStats struct {
	Path     string      `json:"path"`
	Appends  int64       `json:"appends"` // durable records acknowledged this process
	Syncs    int64       `json:"syncs"`   // fsync batches (<= appends: group commit)
	Failures int64       `json:"failures"`
	Replay   ReplayStats `json:"replay"`
}

// Journal is the append-only, checksummed, fsync-batched store of
// (canonical request key -> outcome) records that survives kill -9: on
// reopen, Replay hands back every completed result so only in-flight runs
// are lost.
type Journal struct {
	path string
	f    *os.File

	mu     sync.Mutex
	ch     chan journalAppend
	closed bool
	wdone  chan struct{}

	appends  atomic.Int64
	syncs    atomic.Int64
	failures atomic.Int64
	replay   ReplayStats
	replayed bool
}

type journalAppend struct {
	frame []byte
	errc  chan error
}

// OpenJournal opens (creating if needed) the journal under dir. Call Replay
// before the first Append.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(journalMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: initializing journal: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		syncDir(dir)
	}
	return &Journal{path: path, f: f, ch: make(chan journalAppend, 256), wdone: make(chan struct{})}, nil
}

// syncDir makes a create/rename durable; best-effort (not every filesystem
// supports fsync on directories).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Replay reads every intact record, truncates any torn tail, compacts the
// file when recovery found waste (torn bytes or duplicate keys), and starts
// the append writer. It must be called exactly once, before any Append; the
// returned map is the warm cache.
func (j *Journal) Replay() (map[string]*Outcome, ReplayStats, error) {
	start := time.Now()
	if j.replayed {
		return nil, ReplayStats{}, errors.New("serve: journal already replayed")
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return nil, ReplayStats{}, err
	}
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(j.f, magic); err != nil || string(magic) != journalMagic {
		return nil, ReplayStats{}, fmt.Errorf("serve: %s is not an ndpjournal-v1 file", j.path)
	}

	var st ReplayStats
	out := make(map[string]*Outcome)
	order := []string{} // first-appended order, for compaction
	good := int64(len(journalMagic))
	header := make([]byte, 8)
	for {
		if _, err := io.ReadFull(j.f, header); err != nil {
			break // clean EOF or torn header: stop at last good record
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > maxJournalRecord {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(j.f, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != sum {
			break
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" || rec.Outcome == nil {
			break
		}
		good += int64(8 + len(payload))
		if _, dup := out[rec.Key]; dup {
			st.Duplicates++
			continue
		}
		out[rec.Key] = rec.Outcome
		order = append(order, rec.Key)
	}
	st.Records = len(out)

	size, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, st, err
	}
	if size > good {
		st.TruncatedBytes = size - good
		if err := j.f.Truncate(good); err != nil {
			return nil, st, fmt.Errorf("serve: truncating torn journal tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, st, err
		}
	}
	if st.TruncatedBytes > 0 || st.Duplicates > 0 {
		if err := j.compact(out, order); err != nil {
			return nil, st, err
		}
		st.Compacted = true
	}
	if size, err := j.f.Seek(0, io.SeekEnd); err == nil {
		st.Bytes = size
	}
	st.ReplayMS = float64(time.Since(start)) / float64(time.Millisecond)
	j.replay = st
	j.replayed = true
	go j.writer()
	return out, st, nil
}

// compact rewrites the journal as a clean file of exactly the live records
// (temp file + fsync + atomic rename), reopening the handle at its end.
func (j *Journal) compact(out map[string]*Outcome, order []string) error {
	if order == nil {
		order = make([]string, 0, len(out))
		for k := range out {
			order = append(order, k)
		}
		sort.Strings(order)
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, journalFileName+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: journal compaction: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.WriteString(journalMagic); err != nil {
		tmp.Close()
		return err
	}
	for _, key := range order {
		frame, err := encodeRecord(key, out[key])
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("serve: journal compaction rename: %w", err)
	}
	syncDir(dir)
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	old := j.f
	j.f = f
	old.Close()
	return nil
}

// encodeRecord frames one record: length, CRC-32C, JSON payload.
func encodeRecord(key string, out *Outcome) ([]byte, error) {
	payload, err := json.Marshal(journalRecord{Key: key, Outcome: out})
	if err != nil {
		return nil, fmt.Errorf("serve: encoding journal record: %w", err)
	}
	if len(payload) > maxJournalRecord {
		return nil, fmt.Errorf("serve: journal record too large (%d bytes)", len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[8:], payload)
	return frame, nil
}

// Append persists one result and returns once it is durable (written and
// fsynced). Concurrent appends are group-committed under one fsync.
func (j *Journal) Append(key string, out *Outcome) error {
	frame, err := encodeRecord(key, out)
	if err != nil {
		j.failures.Add(1)
		return err
	}
	req := journalAppend{frame: frame, errc: make(chan error, 1)}
	j.mu.Lock()
	if !j.replayed {
		j.mu.Unlock()
		j.failures.Add(1)
		return errors.New("serve: journal append before Replay")
	}
	if j.closed {
		j.mu.Unlock()
		j.failures.Add(1)
		return ErrJournalClosed
	}
	j.ch <- req
	j.mu.Unlock()
	if err := <-req.errc; err != nil {
		j.failures.Add(1)
		return err
	}
	return nil
}

// writer is the group-commit loop: drain whatever is pending, write it as
// one batch, fsync once, acknowledge everyone.
func (j *Journal) writer() {
	defer close(j.wdone)
	for req, ok := <-j.ch; ok; req, ok = <-j.ch {
		batch := []journalAppend{req}
	drain:
		for {
			select {
			case r, more := <-j.ch:
				if !more {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		var buf []byte
		for _, r := range batch {
			buf = append(buf, r.frame...)
		}
		_, err := j.f.Write(buf)
		if err == nil {
			err = j.f.Sync()
			j.syncs.Add(1)
		}
		if err == nil {
			j.appends.Add(int64(len(batch)))
		}
		for _, r := range batch {
			r.errc <- err
		}
	}
}

// Stats returns the journal's accounting.
func (j *Journal) Stats() JournalStats {
	return JournalStats{
		Path:     j.path,
		Appends:  j.appends.Load(),
		Syncs:    j.syncs.Load(),
		Failures: j.failures.Load(),
		Replay:   j.replay,
	}
}

// Close flushes pending appends and closes the file. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	replayed := j.replayed
	close(j.ch)
	j.mu.Unlock()
	if replayed {
		<-j.wdone // writer drains the channel before exiting
	}
	return j.f.Close()
}
