package registry

// This file gives the central QoS registry crash consistency: an
// append-only, checksummed, line-framed write-ahead log with group
// commit, periodic snapshot + log compaction, and a recovery path
// (Open) that replays snapshot + WAL and truncates the torn tail a crash
// mid-append leaves behind.
//
// On-disk layout, inside one directory:
//
//	wal.wsx       one frame per record since the last compaction:
//	              "<epoch> <seq> <crc32-hex8> <json>\n"
//	snapshot.wsx  the full log at the last compaction:
//	              "s2 <count> <lastSeq> <crc32-hex8> <bodyLen>\n"
//	              followed by <count> frames (the <bodyLen> bytes the
//	              header CRC covers)
//	epoch.wsx     the fencing-epoch history (see replication.go):
//	              "e1 <epoch> <startSeq>\n" per promotion
//
// There is one frame layout, written and read everywhere a record is
// framed: the WAL, the snapshot body and the replication stream. Every
// frame carries the fencing epoch of the primary that wrote it and its
// sequence number, and its CRC-32 covers both as well as the payload:
// it is the IEEE CRC of the JSON payload followed by the header text
// "<epoch> <seq>", so a flipped bit anywhere in a frame but its newline
// fails the checksum.
//
// A frame is accepted by one rule, in recovery and in replication alike
// (checkFrame, after ParseWire verified the checksum): its sequence
// number extends the log by exactly one, and its epoch is the one the
// mark history assigns that sequence number. In recovery the first frame
// that fails the rule starts the torn tail, which Open truncates away and
// reports instead of failing the store. WAL frames the snapshot already
// covers (a crash between "snapshot renamed" and "WAL truncated") lead
// the file and are skipped. The snapshot is written to a temp file,
// fsynced and renamed, so it is never observed half written; a snapshot
// whose header, body checksum or frames fail to verify (a real disk
// fault) is reported as a Recovery warning and Open falls back to
// WAL-only replay, so a node with a damaged snapshot still serves its WAL
// suffix instead of refusing to boot.
//
// Group commit: concurrent writers enqueue encoded frames under a short
// queue lock; the first enqueuer becomes the flush leader and writes
// everything queued — including frames that arrive while it is writing —
// with a single write + fsync per batch. Sequence numbers are assigned
// under the queue lock, so the file's frame order is always seq-ascending
// and a crash still leaves a clean prefix plus at most one torn batch.
// Local submits and replicated frames take the same path (commit), which
// is why a follower's WAL is byte-identical to its primary's.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wstrust/internal/core"
)

const (
	walName      = "wal.wsx"
	snapshotName = "snapshot.wsx"
	snapPrefix   = "s2" // snapshot header tag
)

// WALOptions tune the durability/throughput trade of a WAL-backed store.
// The zero value is safe and conservative.
type WALOptions struct {
	// SyncEvery batches fsyncs: the WAL file is fsynced once every
	// SyncEvery appended records (and always on Sync, Snapshot and
	// Close). Values below 2 fsync every group-commit batch — maximum
	// durability (a batch of one is a per-record fsync).
	SyncEvery int
	// SnapshotEvery, when positive, compacts automatically once the live
	// WAL accumulates that many frames: the full in-memory log is written
	// to a fresh snapshot and the WAL truncated to empty.
	SnapshotEvery int
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// SnapshotRecords and WALRecords count the feedback entries restored
	// from each file.
	SnapshotRecords int
	WALRecords      int
	// SkippedRecords counts WAL frames the snapshot already covered
	// (a crash landed between snapshot rename and WAL truncation).
	SkippedRecords int
	// Torn reports that the WAL ended in a partial, corrupt or
	// out-of-sequence frame; TornBytes is how many trailing bytes were
	// truncated away.
	Torn      bool
	TornBytes int64
	// SnapshotCorrupt reports that snapshot.wsx existed but failed its
	// header or checksum verification; recovery fell back to WAL-only
	// replay and SnapshotWarning carries the reason. Records written
	// before the last compaction are lost in this mode — the warning is
	// the operator's cue to re-seed the node from a replica.
	SnapshotCorrupt bool
	SnapshotWarning string
}

// Records is the total number of feedback entries recovered.
func (r Recovery) Records() int { return r.SnapshotRecords + r.WALRecords }

// String renders the recovery summary for daemon logs.
func (r Recovery) String() string {
	s := fmt.Sprintf("recovered %d records (%d snapshot + %d wal, %d skipped)",
		r.Records(), r.SnapshotRecords, r.WALRecords, r.SkippedRecords)
	if r.Torn {
		s += fmt.Sprintf("; truncated torn final record (%d bytes)", r.TornBytes)
	}
	if r.SnapshotCorrupt {
		s += fmt.Sprintf("; SNAPSHOT CORRUPT, fell back to wal-only replay (%s)", r.SnapshotWarning)
	}
	return s
}

// walWriter is the open WAL file of a durable store, with the group-commit
// queue. Committers enqueue frames under mu; one leader at a time drains
// the queue to the file with mu released, so the fsync cost is shared by
// every frame in the batch. The file handle itself is written only by the
// flush leader (flushing set) or with the store world-quiesced
// (Snapshot/Sync/Close hold Store.state exclusively), never both at once.
type walWriter struct {
	dir  string
	f    *os.File
	opts WALOptions

	mu            sync.Mutex
	flushed       sync.Cond // signaled under mu after every batch write
	pending       []byte    // guarded by mu: encoded frames awaiting write
	pendingFrames int       // guarded by mu: frame count in pending
	pendingTop    uint64    // guarded by mu: highest seq in pending
	spare         []byte    // guarded by mu: recycled batch buffer
	flushing      bool      // guarded by mu: a leader is draining the queue
	acked         uint64    // guarded by mu: highest seq written to the file
	unsynced      int       // guarded by mu: frames written since the last fsync
	frames        int       // guarded by mu: frames in the file since compaction
	broken        error     // guarded by mu: sticky first write/fsync failure
}

// commit is the one enqueue-and-await routine of the WAL: it appends
// frames to the queue and returns once every one of them has been written
// to the file (and fsynced, when the SyncEvery policy calls for it).
// Local records (assign set) take the next sequence numbers from seqSrc
// under the queue lock, written back into frames[i].Seq, so the file's
// frame order is seq-ascending. Replicated frames (assign clear) arrive
// numbered by their primary and must extend seqSrc exactly; seqSrc
// advances to the last of them, and their bytes match the primary's.
//
// The first committer to find the queue idle becomes the leader and
// performs one write (+ one fsync) for every frame queued meanwhile;
// later committers wait for their frames' acknowledgement. Any write or
// fsync failure marks the whole WAL broken: bytes of a torn batch may
// already be on disk, so retrying in place could interleave frames out of
// order. Every queued and future commit then fails with the same error;
// recovery (Open) handles the torn tail. Only the seq assignment and the
// frame append run under the queue mutex.
//
//lint:hotpath commit is on every Submit
func (w *walWriter) commit(seqSrc *atomic.Uint64, frames []Frame, assign bool) error {
	// The payload part of each checksum needs no lock; only the header
	// digits, which hold the sequence number, are hashed under it.
	var one [1]uint32
	crcs := one[:]
	if len(frames) > 1 {
		crcs = make([]uint32, len(frames))
	}
	for i := range frames {
		crcs[i] = crc32.ChecksumIEEE(frames[i].Payload)
	}
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return err
	}
	if want := seqSrc.Load() + 1; !assign && frames[0].Seq != want {
		w.mu.Unlock()
		return fmt.Errorf("%w: replicated frame seq %d, want %d", ErrSeqGap, frames[0].Seq, want) //lint:hotalloc cold path: a misnumbered replicated batch
	}
	for i := range frames {
		if assign {
			frames[i].Seq = seqSrc.Add(1)
		}
		w.pending = appendFrame(w.pending, frames[i].Epoch, frames[i].Seq, crcs[i], frames[i].Payload)
	}
	last := frames[len(frames)-1].Seq
	seqSrc.Store(last)
	w.pendingFrames += len(frames)
	w.pendingTop = last
	if w.flushing {
		// A leader is already draining the queue and will pick these
		// frames up; wait for them to be acknowledged.
		for w.acked < last && w.broken == nil {
			w.flushed.Wait()
		}
	} else {
		w.flushing = true
		w.lead()
		w.flushing = false
		w.flushed.Broadcast()
	}
	ok := w.acked >= last
	err := w.broken
	w.mu.Unlock()
	if !ok {
		return err
	}
	return nil
}

// lead drains the commit queue: repeatedly swap out the pending buffer,
// write (and per policy fsync) it with the queue unlocked, then
// acknowledge the batch. Frames enqueued while a batch is in flight are
// picked up by the next iteration, so the leader never returns with work
// queued. Called and returns with w.mu held, flushing set.
//
//lint:guarded lead runs with w.mu held (commit); it relocks around file I/O
func (w *walWriter) lead() {
	for w.pendingFrames > 0 && w.broken == nil {
		buf, n, top := w.pending, w.pendingFrames, w.pendingTop
		w.pending = w.spare[:0]
		w.pendingFrames = 0
		needSync := w.opts.SyncEvery < 2 || w.unsynced+n >= w.opts.SyncEvery
		w.mu.Unlock()
		_, err := w.f.Write(buf)
		if err == nil && needSync {
			err = w.f.Sync()
		}
		w.mu.Lock()
		w.spare = buf[:0]
		if err != nil {
			w.broken = fmt.Errorf("registry: wal group commit: %w", err)
		} else {
			w.frames += n
			if needSync {
				w.unsynced = 0
			} else {
				w.unsynced += n
			}
			w.acked = top
		}
		w.flushed.Broadcast()
	}
}

// sync flushes any queued frames and fsyncs the WAL file. Callers hold the
// store's state lock exclusively (world quiesced), so no leader is in
// flight; the defensive drain covers a commit that errored after enqueue.
func (w *walWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if w.pendingFrames > 0 {
		if _, err := w.f.Write(w.pending); err != nil {
			w.broken = fmt.Errorf("registry: wal flush: %w", err)
			return w.broken
		}
		w.frames += w.pendingFrames
		w.acked = w.pendingTop
		w.pending = w.pending[:0]
		w.pendingFrames = 0
	}
	if err := w.f.Sync(); err != nil { //lint:lockorder world quiesced: callers hold Store.state exclusively, so no other locker can block on w.mu
		w.broken = fmt.Errorf("registry: wal fsync: %w", err)
		return w.broken
	}
	w.unsynced = 0
	return nil
}

// shouldCompact reports whether the live WAL has accumulated enough frames
// to trigger auto-compaction.
func (w *walWriter) shouldCompact() bool {
	if w.opts.SnapshotEvery <= 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames >= w.opts.SnapshotEvery
}

// truncate empties the WAL file and the writer's queue accounting: after a
// compaction (the frames now live in the snapshot), a replica re-seed, or
// ResetReplica. Callers hold the store's state lock exclusively, so no
// commit is in flight.
func (w *walWriter) truncate() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = w.pending[:0]
	w.pendingFrames = 0
	w.pendingTop = 0
	w.acked = 0
	w.unsynced = 0
	w.frames = 0
	return nil
}

// Open builds (or recovers) a durable Store rooted at dir. It replays
// snapshot.wsx then wal.wsx, verifying every frame; the torn tail a crash
// mid-append leaves — or any frame that fails its checksum, its sequence
// or its epoch — is truncated away and reported in Recovery rather than
// failing the store, and a snapshot that fails verification is skipped
// (WAL-only replay) with a Recovery warning rather than refusing
// recovery. Subsequent Submits append to the WAL before touching memory,
// so anything acknowledged is durable up to the fsync batching window.
//
//lint:guarded Open constructs the store; it is not shared until returned
func Open(dir string, opts WALOptions) (*Store, Recovery, error) {
	var rec Recovery
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("registry: open %s: %w", dir, err)
	}
	s := NewStore()

	marks, err := loadMarks(filepath.Join(dir, epochName))
	if err != nil {
		return nil, rec, err
	}
	s.installMarksLocked(marks)

	snap, corrupt, err := readSnapshot(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, rec, err
	}
	if corrupt != nil {
		// Fall back to WAL-only replay: the snapshot's records are gone,
		// but the WAL suffix still restores everything since the last
		// compaction instead of failing recovery outright.
		rec.SnapshotCorrupt = true
		rec.SnapshotWarning = corrupt.Error()
	} else {
		base := snap.lastSeq - uint64(len(snap.log))
		for i, fb := range snap.log {
			s.applyRecovered(base+uint64(i)+1, fb)
		}
		s.seq.Store(snap.lastSeq)
		rec.SnapshotRecords = len(snap.log)
	}

	walPath := filepath.Join(dir, walName)
	if err := s.replayWAL(walPath, snap.lastSeq, corrupt != nil, &rec); err != nil {
		return nil, rec, err
	}
	s.version.Add(1)

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("registry: open wal: %w", err)
	}
	w := &walWriter{
		dir:    dir,
		f:      f,
		opts:   opts,
		frames: rec.WALRecords + rec.SkippedRecords,
	}
	w.flushed.L = &w.mu
	s.wal = w
	return s, rec, nil
}

// snapshotDoc is a verified snapshot document: the records
// lastSeq-len(log)+1 .. lastSeq, in sequence order.
type snapshotDoc struct {
	log     []core.Feedback
	lastSeq uint64
}

// readSnapshot parses and verifies the compacted log. A missing snapshot
// is a fresh store (zero document). I/O failures return err; any
// structural or checksum failure returns corrupt instead —
// the caller falls back to WAL-only replay.
func readSnapshot(path string) (doc snapshotDoc, corrupt, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return doc, nil, nil
	}
	if err != nil {
		return doc, nil, fmt.Errorf("registry: read snapshot: %w", err)
	}
	doc, corrupt = parseSnapshotDoc(data, path)
	return doc, corrupt, nil
}

// parseSnapshotDoc verifies and decodes a snapshot document (from disk or
// a replica transfer): the header, the body checksum, every frame's
// checksum, and the dense numbering lastSeq-count+1 .. lastSeq. The
// frames' epochs are not held against a mark history: a seed adopts them
// with the document. Any failure comes back as a zero document and an
// error naming label — never half-applied records.
func parseSnapshotDoc(data []byte, label string) (snapshotDoc, error) {
	line, body, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return snapshotDoc{}, fmt.Errorf("snapshot %s: missing header", label)
	}
	fields := strings.Fields(string(line))
	if len(fields) != 5 || fields[0] != snapPrefix {
		return snapshotDoc{}, fmt.Errorf("snapshot %s: bad header %q", label, line)
	}
	count, err1 := strconv.ParseUint(fields[1], 10, 64)
	last, err2 := strconv.ParseUint(fields[2], 10, 64)
	wantCRC, err3 := strconv.ParseUint(fields[3], 16, 32)
	bodyLen, err4 := strconv.ParseUint(fields[4], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || count > last {
		return snapshotDoc{}, fmt.Errorf("snapshot %s: bad header %q", label, line)
	}
	if uint64(len(body)) != bodyLen {
		return snapshotDoc{}, fmt.Errorf("snapshot %s: body is %d bytes, header says %d", label, len(body), bodyLen)
	}
	if got := crc32.ChecksumIEEE(body); got != uint32(wantCRC) {
		return snapshotDoc{}, fmt.Errorf("snapshot %s: body checksum mismatch (%08x != %08x)", label, got, uint32(wantCRC))
	}
	doc := snapshotDoc{lastSeq: last}
	prev := last - count
	for rest := body; uint64(len(doc.log)) < count; {
		line, next, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return snapshotDoc{}, fmt.Errorf("snapshot %s: %d of %d records, then truncated", label, len(doc.log), count)
		}
		rest = next
		f, err := ParseWire(line)
		if err == nil && f.Seq != prev+1 {
			err = fmt.Errorf("%w: frame %d follows %d", ErrSeqGap, f.Seq, prev)
		}
		var fb core.Feedback
		if err == nil {
			fb, err = f.Feedback()
		}
		if err != nil {
			return snapshotDoc{}, fmt.Errorf("snapshot %s record %d: %w", label, len(doc.log), err)
		}
		doc.log = append(doc.log, fb)
		prev = f.Seq
	}
	return doc, nil
}

// replayWAL applies the WAL frames that extend the recovered log, then
// truncates the rest so future appends extend the durable prefix. Frames
// the snapshot covers lead the file and are skipped; every other frame
// must pass checkFrame against the frame before it, and the first one
// that fails — like a frame whose checksum fails or that lacks its
// newline — starts the torn tail. Without a trustworthy snapshot
// (fallback) the first WAL frame sets the cursor.
func (s *Store) replayWAL(path string, snapLastSeq uint64, fallback bool, rec *Recovery) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("registry: read wal: %w", err)
	}
	marks := s.Marks()
	prev := snapLastSeq
	offset := int64(0) // end of the last accepted frame
	for rest := data; len(rest) > 0; {
		line, next, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			break // no newline: a frame torn mid-write
		}
		f, err := ParseWire(line)
		if err != nil {
			break
		}
		if rec.WALRecords == 0 && !fallback && f.Seq <= snapLastSeq {
			rec.SkippedRecords++
		} else {
			if rec.WALRecords == 0 && fallback {
				prev = f.Seq - 1
			}
			var fb core.Feedback
			if err = checkFrame(f, prev, marks); err == nil {
				fb, err = f.Feedback()
			}
			if err != nil {
				break
			}
			s.applyRecovered(f.Seq, fb)
			prev = f.Seq
			rec.WALRecords++
		}
		offset += int64(len(line)) + 1
		rest = next
	}
	if torn := int64(len(data)) - offset; torn > 0 {
		rec.Torn = true
		rec.TornBytes = torn
		if err := os.Truncate(path, offset); err != nil {
			return fmt.Errorf("registry: truncate torn wal tail: %w", err)
		}
	}
	return nil
}

// appendFrame renders one frame — "<epoch> <seq> <crc32-hex8> <payload>\n"
// — appending into dst. payloadCRC is the IEEE CRC of payload alone; the
// frame checksum extends it over the "<epoch> <seq>" header just
// appended, so under the queue mutex only those few digits are hashed.
// Appending straight into the pending buffer with strconv keeps the
// critical section to the bytes themselves.
//
//lint:hotpath runs under walWriter.mu on every Submit
func appendFrame(dst []byte, epoch, seq uint64, payloadCRC uint32, payload []byte) []byte {
	head := len(dst)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, seq, 10)
	crc := crc32.Update(payloadCRC, crc32.IEEETable, dst[head:])
	dst = append(dst, ' ')
	const hexdigits = "0123456789abcdef"
	var hex [8]byte
	for i := 7; i >= 0; i-- {
		hex[i] = hexdigits[crc&0xf]
		crc >>= 4
	}
	dst = append(dst, hex[:]...)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// Durable reports whether the store is WAL-backed (built by Open, not
// NewStore).
func (s *Store) Durable() bool {
	s.state.RLock()
	defer s.state.RUnlock()
	return s.wal != nil
}

// Sync flushes and fsyncs any WAL frames the batching window is holding.
// A no-op on in-memory stores.
func (s *Store) Sync() error {
	s.state.Lock()
	defer s.state.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.sync()
}

// Snapshot compacts the log: the full in-memory state is written to a
// fresh snapshot (atomically, via temp + rename) and the WAL truncated to
// empty. Open replays the result to the identical store.
func (s *Store) Snapshot() error {
	s.state.Lock()
	defer s.state.Unlock()
	if s.wal == nil {
		return errors.New("registry: Snapshot on a store with no WAL (use Open)")
	}
	return s.snapshotLocked()
}

// compact runs the auto-compaction a commit triggered, re-checking the
// threshold under the exclusive state lock so concurrent triggers collapse
// into one snapshot.
func (s *Store) compact() error {
	s.state.Lock()
	defer s.state.Unlock()
	if s.closed || s.wal == nil || !s.wal.shouldCompact() {
		return nil
	}
	return s.snapshotLocked()
}

// buildSnapshotDoc renders a snapshot document — the checksummed s2
// header and the body of frames it covers — for log, the records
// lastSeq-len(log)+1 .. lastSeq in order. Each frame carries the epoch
// the marks assign its sequence number, so a replica seeded from the
// document reconstructs a byte-identical history. Header and body come
// back separately so a large body is never copied to prepend the header.
func buildSnapshotDoc(log []core.Feedback, lastSeq uint64, marks []EpochMark) (header, body []byte, err error) {
	seq := lastSeq - uint64(len(log))
	for _, fb := range log {
		payload, err := marshalRecord(fb)
		if err != nil {
			return nil, nil, err
		}
		seq++
		body = appendFrame(body, epochAt(marks, seq), seq, crc32.ChecksumIEEE(payload), payload)
	}
	header = fmt.Appendf(nil, "%s %d %d %08x %d\n",
		snapPrefix, len(log), lastSeq, crc32.ChecksumIEEE(body), len(body))
	return header, body, nil
}

// snapshotLocked writes snapshot.wsx.tmp, fsyncs, renames it over
// snapshot.wsx, fsyncs the directory, then truncates the WAL. A crash at
// any point leaves a recoverable pair: before the rename the old
// snapshot+WAL still replay; after it, WAL frames the new snapshot covers
// are skipped by sequence number. The world is quiesced (state held
// exclusively), so every acknowledged record is both durable and applied.
//
//lint:guarded snapshotLocked runs with s.state held by Snapshot/compact
func (s *Store) snapshotLocked() error {
	if err := s.wal.sync(); err != nil {
		return err
	}
	// With the world quiesced the view holds every record, so its log is
	// exactly lastSeq-len(log)+1 .. lastSeq.
	header, body, err := buildSnapshotDoc(s.currentView().log, s.seq.Load(), s.Marks())
	if err != nil {
		return fmt.Errorf("registry: snapshot: %w", err)
	}
	if err := writeFileAtomic(s.wal.dir, snapshotName, header, body); err != nil {
		return fmt.Errorf("registry: snapshot: %w", err)
	}
	// The snapshot is durable; the WAL's frames are now redundant.
	if err := s.wal.truncate(); err != nil {
		return fmt.Errorf("registry: wal truncate after snapshot: %w", err)
	}
	return nil
}

// writeFileAtomic lands the concatenated chunks at dir/name via the temp +
// fsync + rename + dir-fsync dance, so the file is never observed half
// written.
func writeFileAtomic(dir, name string, chunks ...[]byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	werr := func() error {
		for _, c := range chunks {
			if _, err := bw.Write(c); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return fsyncDir(dir)
}

// Close fsyncs and closes the WAL. The store stays readable; further
// Submits fail. A no-op on in-memory stores.
func (s *Store) Close() error {
	s.state.Lock()
	defer s.state.Unlock()
	if s.wal == nil {
		return nil
	}
	serr := s.wal.sync()
	cerr := s.wal.f.Close()
	s.wal = nil
	s.closed = true
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("registry: wal close: %w", cerr)
	}
	return nil
}

// fsyncDir makes a directory-entry change (rename) durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("registry: open dir for fsync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("registry: fsync dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("registry: close dir: %w", cerr)
	}
	return nil
}
