package registry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wstrust/internal/core"
	"wstrust/internal/simclock"
)

// TestShardingPreservesSubmissionOrder: sequential submits must read back
// in exact submission order through every API, regardless of which shard
// each record landed in — the determinism contract golden digests and
// wsxsim replays rely on.
func TestShardingPreservesSubmissionOrder(t *testing.T) {
	st := NewStore()
	const n = 200
	for i := 0; i < n; i++ {
		if err := st.Submit(richFeedback(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Export must replay the exact submission sequence.
	re := NewStore()
	if _, err := re.Import(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := richFeedback(i)
		svc := st.ForService(want.Service)
		found := false
		for _, fb := range svc {
			if fb.Consumer == want.Consumer && fb.At.Equal(want.At) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("record %d missing from ForService(%s)", i, want.Service)
		}
	}
	if !matricesEqual(st, re) {
		t.Fatal("export/import round trip diverged")
	}
	// ForConsumer order: one consumer, many services, must be submission order.
	st2 := NewStore()
	for i := 0; i < 40; i++ {
		fb := richFeedback(i)
		fb.Consumer = "c-fixed"
		fb.Service = core.NewServiceID(i) // spread across shards
		if err := st2.Submit(fb); err != nil {
			t.Fatal(err)
		}
	}
	got := st2.ForConsumer("c-fixed")
	if len(got) != 40 {
		t.Fatalf("ForConsumer len = %d", len(got))
	}
	for i, fb := range got {
		if fb.Service != core.NewServiceID(i) {
			t.Fatalf("ForConsumer[%d] = %s, want %s (submission order lost)", i, fb.Service, core.NewServiceID(i))
		}
	}
}

// TestViewSharedSliceSafety: a reader's append onto a returned slice must
// not scribble into the view's shared backing array.
func TestViewSharedSliceSafety(t *testing.T) {
	st := NewStore()
	_ = st.Submit(fb("c001", "s001", 0.1, simclock.Epoch))
	got := st.ForService("s001")
	_ = append(got, fb("c-evil", "s001", 0.9, simclock.Epoch)) // must reallocate
	_ = st.Submit(fb("c002", "s001", 0.2, simclock.Epoch))
	after := st.ForService("s001")
	if len(after) != 2 || after[1].Consumer != "c002" {
		t.Fatalf("shared backing array corrupted: %+v", after)
	}
}

// TestDurableHammer drives concurrent Submit / reads / Snapshot / Sync on
// a WAL-backed store across shards; run with -race. Afterwards the store
// must reopen to exactly the acknowledged records.
func TestDurableHammer(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir, WALOptions{SyncEvery: 8, SnapshotEvery: 0})
	var wg sync.WaitGroup
	var acked atomic.Int64
	const writers, perG = 8, 50
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fb := richFeedback(w*perG + i)
				fb.Service = core.NewServiceID(i % 13) // spread across shards
				if err := st.Submit(fb); err != nil {
					t.Error(err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() { // reader mixing view refreshes into the write storm
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = st.ForService(core.NewServiceID(i % 13))
			_ = st.RatingMatrix()
			_ = st.Services()
			var buf bytes.Buffer
			if i%50 == 0 {
				_ = st.Export(&buf)
			}
		}
	}()
	wg.Add(1)
	go func() { // compaction + sync racing the writers
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := st.Snapshot(); err != nil {
				t.Error(err)
			}
			if err := st.Sync(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if got := int64(st.Len()); got != acked.Load() {
		t.Fatalf("Len = %d, acked = %d", got, acked.Load())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	if int64(rec.Records()) != acked.Load() {
		t.Fatalf("recovered %d, acked %d", rec.Records(), acked.Load())
	}
	if !matricesEqual(st, re) {
		t.Fatal("recovered state diverged from closed store")
	}
}

// TestRacingSubmitsShipContiguously piles concurrent submits onto one
// service — one shard, so committers race for its lock and land out of
// sequence order — while a follower-style reader tails FramesSince from
// its cursor and a second reader forces view refreshes. Every batch the
// tailer receives must continue its cursor exactly; afterwards the shard
// must be seq-ascending and the view log in sequence order. Run with
// -race.
func TestRacingSubmitsShipContiguously(t *testing.T) {
	for _, durable := range []bool{false, true} {
		st := NewStore()
		if durable {
			st, _ = openT(t, t.TempDir(), WALOptions{SyncEvery: 4})
		}
		const writers, perG = 8, 100
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					fb := richFeedback(w*perG + i)
					fb.Service = core.NewServiceID(0)
					if err := st.Submit(fb); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = st.ForService(core.NewServiceID(0))
			}
		}()
		tailed := make(chan error, 1)
		go func() {
			cursor := uint64(0)
			for cursor < writers*perG {
				frames, err := st.FramesSince(cursor, 64)
				if err != nil {
					tailed <- err
					return
				}
				for _, f := range frames {
					if f.Seq != cursor+1 {
						tailed <- fmt.Errorf("frame %d after cursor %d", f.Seq, cursor)
						return
					}
					cursor = f.Seq
				}
			}
			tailed <- nil
		}()
		wg.Wait()
		if err := <-tailed; err != nil {
			t.Fatalf("durable=%v: tailer: %v", durable, err)
		}
		sh := &st.shards[shardFor(core.NewServiceID(0))]
		for i := 1; i < len(sh.recs); i++ {
			if sh.recs[i].seq <= sh.recs[i-1].seq {
				t.Fatalf("durable=%v: shard holds seq %d after %d", durable, sh.recs[i].seq, sh.recs[i-1].seq)
			}
		}
		if len(sh.recs) != writers*perG || st.Len() != writers*perG {
			t.Fatalf("durable=%v: shard holds %d records, store %d, want %d", durable, len(sh.recs), st.Len(), writers*perG)
		}
		log := st.currentView().log
		for i, r := range sh.recs {
			if !reflect.DeepEqual(log[i], r.fb) {
				t.Fatalf("durable=%v: view log position %d is not record seq %d", durable, i, r.seq)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupCommitBatchesFsyncs: many concurrent submits on a SyncEvery:1
// store must complete with far fewer fsyncs than submits — the group
// commit amortization. We can't count fsyncs directly, but we can verify
// the ledger: every acknowledged record is on disk in seq order.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir, WALOptions{SyncEvery: 1})
	var wg sync.WaitGroup
	const writers, perG = 16, 25
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := st.Submit(richFeedback(w*perG + i)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
	if len(lines) != writers*perG {
		t.Fatalf("wal has %d frames, want %d", len(lines), writers*perG)
	}
	last := uint64(0)
	for i, line := range lines {
		f, err := ParseWire(line)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Seq <= last {
			t.Fatalf("frame %d: seq %d not ascending after %d", i, f.Seq, last)
		}
		last = f.Seq
	}
}

// TestGroupCommitCrashImage simulates kill -9 mid-group-commit: while
// concurrent submitters hammer the WAL, the test copies the live file —
// exactly the bytes a crash would leave — into a fresh directory and
// recovers from it. The copy must always be a clean seq-ascending prefix
// (plus at most one torn frame), and every record acknowledged before the
// copy began must be in it.
func TestGroupCommitCrashImage(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir, WALOptions{SyncEvery: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var acked atomic.Int64
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.Submit(richFeedback(w*10000 + i)); err != nil {
					t.Error(err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	for img := 0; img < 5; img++ {
		// Durable floor: with SyncEvery 4, at most the 3 newest acked
		// records may still be in the unsynced window when we "crash".
		floor := acked.Load() - 3
		data, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, rec := openT(t, crashDir, WALOptions{})
		if int64(rec.Records()) < floor {
			t.Fatalf("image %d: recovered %d records, durable floor %d", img, rec.Records(), floor)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALKillAndRecoverBatched extends the torn-tail recovery guarantee to
// batched group commits: submits land through concurrent committers, the
// file is severed mid-final-frame, and recovery must restore everything
// before the tear.
func TestWALKillAndRecoverBatched(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir, WALOptions{SyncEvery: 16})
	var wg sync.WaitGroup
	const n = 48
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Submit(richFeedback(i)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1 + 7 // mid-final-frame
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	re, rec := openT(t, dir, WALOptions{})
	if !rec.Torn {
		t.Fatal("severed batched WAL not reported torn")
	}
	if rec.Records() != n-1 {
		t.Fatalf("recovered %d records, want %d", rec.Records(), n-1)
	}
	// The survivor must accept appends and recover cleanly once more.
	if err := re.Submit(richFeedback(n)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := openT(t, dir, WALOptions{})
	if rec2.Torn || rec2.Records() != n {
		t.Fatalf("second recovery: %+v", rec2)
	}
}

// TestResetInvalidatesView: Reset must clear what readers observe even
// though views are cached.
func TestResetInvalidatesView(t *testing.T) {
	st := NewStore()
	_ = st.Submit(fb("c001", "s001", 0.4, simclock.Epoch))
	if len(st.ForService("s001")) != 1 { // populate the view cache
		t.Fatal("setup")
	}
	st.Reset()
	if got := st.ForService("s001"); len(got) != 0 {
		t.Fatalf("stale view after Reset: %+v", got)
	}
	_ = st.Submit(fb("c002", "s002", 0.6, simclock.Epoch))
	if got := st.Services(); len(got) != 1 || got[0] != "s002" {
		t.Fatalf("post-reset Services = %v", got)
	}
}
