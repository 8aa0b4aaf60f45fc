// Package store implements the MIRABEL Data Management component (paper
// §3): the node-local persistent store for "all historical and current
// time demand/supply, forecasting model parameters, flex-offers, price
// and contracts". Data lives in a multidimensional schema — dimension
// tables (actors, energy types, market areas) and fact tables
// (measurements, flex-offers, forecasts, prices, contracts) — "a
// combination of star and snowflake schemas" flexible enough that actors
// at all levels use subparts of it.
//
// Durability follows the classic embedded-engine recipe: every mutation
// is appended to a write-ahead log before being applied in memory;
// Snapshot() compacts the log into a point-in-time image; Open() recovers
// by loading the snapshot and replaying the log tail. Each record is one
// log frame, table|op|crc32hex|json (see AppendFrame), so a torn or
// corrupt final write is detected and dropped. Logs written before the
// frame format hold JSON lines {table,op,data,crc}; replay still reads
// them, line by line. The change is one-way: a reader that knows only
// JSON lines takes the first frame for a torn tail, so a directory goes
// back to such a reader only after a Snapshot has emptied the log.
//
// The log is written by a group committer: concurrent writers coalesce
// into one buffered append (and, under SyncAlways, one fsync) per
// physical write — the first writer to arrive leads the group and
// flushes everyone who queued behind it. When the record should be made
// durable is the SyncPolicy (see Options): flush-to-OS per commit with
// explicit fsyncs (the default, the seed engine's behaviour), fsync
// every group, or a background fsync interval.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// WAL operations, logged as the frame's flag byte. Puts are upserts
// (idempotent under replay); prune is the measurement-retention sweep,
// logged once per call.
const (
	opPut   = "+"
	opPrune = "-"
)

// encodeRecord marshals one mutation into its log frame (newline
// included). Called outside any table lock where possible.
func encodeRecord(table, op string, data any) ([]byte, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return nil, fmt.Errorf("store: marshal wal record: %w", err)
	}
	return AppendFrame(make([]byte, 0, len(table)+len(raw)+14), table, op[0], raw), nil
}

// walRecord is one logged mutation in the JSON-line format that
// preceded log frames; replay still accepts it.
type walRecord struct {
	Table string          `json:"table"`
	Op    string          `json:"op"` // "put" or "prune"
	Data  json.RawMessage `json:"data"`
	CRC   uint32          `json:"crc"` // over Table|Op|Data
}

func (r *walRecord) checksum() uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte(r.Table))
	h.Write([]byte{'|'})
	h.Write([]byte(r.Op))
	h.Write([]byte{'|'})
	h.Write(r.Data)
	return h.Sum32()
}

// decodeWALLine parses and verifies one WAL line of either format,
// chosen per line: a JSON record line starts with '{', anything else is
// a log frame. ok is false for a torn or corrupt line.
func decodeWALLine(line []byte) (table, op string, data []byte, ok bool) {
	if len(line) > 0 && line[0] == '{' {
		var rec walRecord
		if json.Unmarshal(line, &rec) != nil || rec.checksum() != rec.CRC {
			return "", "", nil, false
		}
		switch rec.Op {
		case "put":
			rec.Op = opPut
		case "prune":
			rec.Op = opPrune
		}
		return rec.Table, rec.Op, rec.Data, true
	}
	kind, flag, payload, ok := ParseFrame(line)
	if !ok {
		return "", "", nil, false
	}
	switch flag {
	case opPut[0]:
		op = opPut
	case opPrune[0]:
		op = opPrune
	default:
		op = string(rune(flag))
	}
	return string(kind), op, payload, true
}

// LogStats counts the committer's work: Records is the number of logged
// mutations, Groups the number of physical write+flush rounds they
// coalesced into, Syncs the number of fsyncs. Records/Groups is the
// group-commit amortization factor.
type LogStats struct {
	Records uint64
	Groups  uint64
	Syncs   uint64
}

// committer owns the WAL file and turns concurrent appends into group
// commits. commit() is leader/follower: the first writer through takes
// the write path and flushes every record queued while it held the
// file; later writers just park on their done channel. Callers hold
// their record's table-stripe lock while waiting, which serializes
// same-key log order with same-key memory order; cross-stripe writers
// are exactly the ones that coalesce.
type committer struct {
	policy   SyncPolicy
	records  atomic.Uint64
	groups   atomic.Uint64
	syncs    atomic.Uint64
	stopTick chan struct{} // closes the interval syncer, if any
	tickDone chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond // signaled when writing goes false
	f       *os.File
	w       *bufio.Writer
	writing bool
	closed  bool
	pending [][]byte
	waiters []chan error
}

func newCommitter(path string, policy SyncPolicy) (*committer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	c := &committer{policy: policy, f: f, w: bufio.NewWriter(f)}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// commit appends recs and returns once they are flushed (and fsynced,
// under SyncAlways) — possibly as part of a larger group led by another
// writer.
func (c *committer) commit(recs [][]byte) error {
	done := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("store: wal is closed")
	}
	c.pending = append(c.pending, recs...)
	c.waiters = append(c.waiters, done)
	c.records.Add(uint64(len(recs)))
	if c.writing {
		// A leader is at the file; it will pick this batch up.
		c.mu.Unlock()
		return <-done
	}
	c.writing = true
	for len(c.pending) > 0 {
		batch, waiters := c.pending, c.waiters
		c.pending, c.waiters = nil, nil
		c.mu.Unlock()
		err := c.writeGroup(batch)
		for _, w := range waiters {
			w <- err
		}
		c.mu.Lock()
	}
	c.writing = false
	c.cond.Broadcast()
	c.mu.Unlock()
	return <-done
}

// writeGroup writes one coalesced batch. Called with writing == true
// (file access is exclusive even though mu is released).
func (c *committer) writeGroup(batch [][]byte) error {
	for _, line := range batch {
		if _, err := c.w.Write(line); err != nil {
			return err
		}
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.groups.Add(1)
	if c.policy == SyncAlways {
		c.syncs.Add(1)
		return c.f.Sync()
	}
	return nil
}

// quiesce waits until no group write is in flight. Caller holds mu and
// keeps it; the file is exclusively theirs until they release it.
func (c *committer) quiesceLocked() {
	for c.writing {
		c.cond.Wait()
	}
}

// sync flushes and fsyncs the log.
func (c *committer) sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiesceLocked()
	if c.closed {
		return nil
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.syncs.Add(1)
	return c.f.Sync()
}

// rotate seals the current log as cur's pre-snapshot tail and starts a
// fresh one. The sealed records live at oldPath until the caller has
// written a snapshot that covers them and removes the file. If a sealed
// tail from an interrupted earlier snapshot still exists, the current
// log is appended to it instead of clobbering it — replay order
// (oldPath then curPath) is unchanged either way.
func (c *committer) rotate(curPath, oldPath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiesceLocked()
	if c.closed {
		return fmt.Errorf("store: wal is closed")
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	if err := c.f.Close(); err != nil {
		return err
	}
	if _, err := os.Stat(oldPath); err == nil {
		if err := appendFile(oldPath, curPath); err != nil {
			return err
		}
		if err := os.Remove(curPath); err != nil {
			return err
		}
	} else if err := os.Rename(curPath, oldPath); err != nil {
		return err
	}
	f, err := os.OpenFile(curPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen wal after rotate: %w", err)
	}
	c.f = f
	c.w.Reset(f)
	return nil
}

// appendFile appends src's contents to dst and fsyncs dst.
func appendFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// close flushes, fsyncs and closes the log. Further commits fail.
func (c *committer) close() error {
	if c.stopTick != nil {
		close(c.stopTick)
		<-c.tickDone
		c.stopTick = nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quiesceLocked()
	if c.closed {
		return nil
	}
	c.closed = true
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	if err := c.f.Sync(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

func (c *committer) stats() LogStats {
	return LogStats{
		Records: c.records.Load(),
		Groups:  c.groups.Load(),
		Syncs:   c.syncs.Load(),
	}
}

// errStopReplay aborts a ReplayLines walk at the first corrupt record
// without surfacing an error: everything past it is an unreadable tail.
var errStopReplay = errors.New("store: stop replay")

// replayWAL streams the log's valid records to apply; it stops silently
// at the first corrupt or torn line (everything after a torn write is
// unreachable anyway) and returns the byte length of the intact prefix.
// A missing file is an empty log.
func replayWAL(path string, apply func(table, op string, data json.RawMessage) error) (int64, error) {
	off, err := ReplayLines(path, func(line []byte) error {
		table, op, data, ok := decodeWALLine(line)
		if !ok {
			return errStopReplay // corrupt tail
		}
		return apply(table, op, data)
	})
	if errors.Is(err, errStopReplay) {
		return off, nil
	}
	return off, err
}

// On-disk artifacts: the snapshot image, the live WAL, and the sealed
// pre-snapshot WAL that exists only between a snapshot's rotation and
// its final rename+cleanup (recovery replays it before the live log;
// replaying it after a completed snapshot is an idempotent no-op).
func snapshotPath(dir string) string { return filepath.Join(dir, "snapshot.json") }
func walPath(dir string) string      { return filepath.Join(dir, "wal.log") }
func walOldPath(dir string) string   { return filepath.Join(dir, "wal.old") }
