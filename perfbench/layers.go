package main

// The traced run's in-process pass: it replays the HTTP pass's op stream
// against each layer's public functions, assembled the way cmd/wsxd
// assembles them, with a span around every call. Only these files know
// the layers' Go APIs; when a layer's API changes, this file follows it.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"wstrust/internal/core"
	"wstrust/internal/registry"
	"wstrust/internal/replica"
	"wstrust/internal/resilience"
	"wstrust/internal/simclock"
	"wstrust/internal/trust/beta"
	"wstrust/internal/trust/eigentrust"
	"wstrust/internal/workload"
)

// daemonSeed is the -seed the runs pin; the catalog, engine and breaker
// streams below derive from it exactly as in cmd/wsxd.
const daemonSeed = 42

// newMech builds the mechanism the daemon runs under -mech.
func newMech(name string) core.Mechanism {
	if name == "eigentrust" {
		return eigentrust.New(eigentrust.WithEpsilon(1e-9))
	}
	return beta.New()
}

func feedback(r rating, at time.Time) core.Feedback {
	return core.Feedback{
		Consumer: core.ConsumerID(r.Consumer),
		Service:  core.ServiceID(r.Service),
		Provider: core.ProviderID(r.Provider),
		Context:  core.Context(r.Context),
		Ratings:  map[core.Facet]float64{core.FacetOverall: r.Rating},
		At:       at,
	}
}

// layerResult is what the in-process pass measured.
type layerResult struct {
	Metrics map[string]float64
	// OpP50us is the median in-process time of each route's op: the
	// layer calls the daemon makes for it, without HTTP and JSON.
	OpP50us map[string]float64
	// SelfP50us is the median self time of each span name: where the
	// in-process time goes, outside the spans' children.
	SelfP50us map[string]float64
}

// replayLayers runs ops in-process and returns the per-layer metrics.
func (b *bench) replayLayers(ops []op, tr *tracer) (layerResult, error) {
	sp := b.sp
	m := map[string]float64{}
	opts := registry.WALOptions{SyncEvery: 1, SnapshotEvery: sp.SnapshotEvery}
	dir := filepath.Join(b.runDir, "replay")
	if err := copyDir(b.fixture, dir); err != nil {
		return layerResult{}, err
	}
	flushDirty()

	t := time.Now()
	id := tr.begin("registry.open", 0, 0)
	store, _, err := registry.Open(dir, opts)
	tr.end(id)
	if err != nil {
		return layerResult{}, err
	}
	defer store.Close()
	m["registry.open_s"] = time.Since(t).Seconds()

	heap0 := liveHeap()
	mech := newMech(sp.Mech)
	t = time.Now()
	id = tr.begin("registry.replay", 0, 0)
	_, err = store.Replay(mech)
	tr.end(id)
	if err != nil {
		return layerResult{}, err
	}
	m["registry.replay_s"] = time.Since(t).Seconds()
	var heapPeak uint64
	if sp.Mech == "eigentrust" {
		heapPeak = liveHeap()
	}

	specs := workload.GenerateServices(simclock.Stream(daemonSeed, "services"),
		workload.ServiceOptions{N: sp.Services, Category: category})
	catalog := make([]core.Candidate, len(specs))
	for i, s := range specs {
		catalog[i] = s.Desc.Candidate()
	}
	engine := core.NewEngine(mech, simclock.Stream(daemonSeed, "wsxd.engine"))
	session := engine.NewRankSession(catalog)
	prefs := workload.BasePreferences()
	clock := simclock.Wall()
	shedder := resilience.NewShedder(resilience.ShedderConfig{Rate: shedRate}, clock)
	breaker := resilience.NewBreaker(resilience.BreakerConfig{}, clock,
		simclock.Stream(daemonSeed, "wsxd.breaker"))

	baseSeq := store.LastSeq()

	w0, err := selfWriteBytes()
	if err != nil {
		return layerResult{}, err
	}
	var written, reads, cold, computes int
	var warmMs, coldMs, iters []float64
	dirty := true
	for i, o := range ops {
		req := int64(i + 1)
		rt := route(o)
		root := tr.begin("op."+rt, req, 0)
		prio := resilience.Normal
		if o.Write {
			prio = resilience.High
		}
		shedder.Admit(prio)
		switch rt {
		case "submit", "local-trust":
			fbs := make([]core.Feedback, len(o.Ratings))
			now := clock.Now()
			for k, r := range o.Ratings {
				fbs[k] = feedback(r, now)
			}
			err = breaker.Do(func() error {
				if rt == "submit" {
					defer tr.end(tr.begin("registry.submit", req, root))
					return store.Submit(fbs[0])
				}
				defer tr.end(tr.begin("registry.submit_batch", req, root))
				return store.SubmitBatch(fbs)
			})
			if err != nil {
				return layerResult{}, fmt.Errorf("replay op %d: %w", i, err)
			}
			id := tr.begin(sp.Mech+".submit", req, root)
			for _, fb := range fbs {
				if err := mech.Submit(fb); err != nil {
					return layerResult{}, fmt.Errorf("replay op %d: %w", i, err)
				}
			}
			tr.end(id)
			written += len(fbs)
			dirty = true
		case "rank":
			reads++
			if dirty {
				id := tr.begin("core.rank", req, root)
				session.Rank(core.ConsumerID(o.Consumer), prefs)
				tr.end(id)
				dirty = false
			}
		case "compute-with-stats":
			t := time.Now()
			id := tr.begin("eigentrust.refresh", req, root)
			mech.Score(scoreQuery(catalog[0]))
			tr.end(id)
			d := float64(time.Since(t)) / float64(time.Millisecond)
			st := mech.(core.ConvergenceReporter).LastConvergence()
			computes++
			iters = append(iters, float64(st.Iterations))
			if st.WarmStart {
				warmMs = append(warmMs, d)
			} else {
				cold++
				coldMs = append(coldMs, d)
			}
			id = tr.begin("eigentrust.score", req, root)
			for _, c := range catalog[1:] {
				mech.Score(scoreQuery(c))
			}
			tr.end(id)
			tr.end(root)
			// Every cold refresh rebuilds the basis; the live heap is
			// read after its spans have closed.
			if !st.WarmStart {
				heapPeak = max(heapPeak, liveHeap())
			}
			continue
		}
		tr.end(root)
	}
	w1, err := selfWriteBytes()
	if err != nil {
		return layerResult{}, err
	}
	if written > 0 {
		m["registry.write_bytes_per_record"] = float64(w1-w0) / float64(written)
	}

	// Admission and the breaker cost tens of nanoseconds, less than a
	// span's own bookkeeping, so they are timed in plain loops of one
	// call per op, as the daemon makes them.
	id = tr.begin("resilience.admit", 0, 0)
	adm := resilience.NewShedder(resilience.ShedderConfig{Rate: shedRate}, clock)
	for _, o := range ops {
		prio := resilience.Normal
		if o.Write {
			prio = resilience.High
		}
		adm.Admit(prio)
	}
	tr.end(id)
	id = tr.begin("resilience.breaker.do", 0, 0)
	noop := func() error { return nil }
	for range ops {
		_ = breaker.Do(noop) // noop never fails
	}
	tr.end(id)

	// Score cost per catalog service, swept once per read like a rank.
	if sp.Mech == "beta" {
		for k := 0; k < max(reads, 1); k++ {
			id := tr.begin("beta.score", 0, 0)
			for _, c := range catalog {
				mech.Score(scoreQuery(c))
			}
			tr.end(id)
		}
	}
	if sp.Mech == "eigentrust" {
		m["eigentrust.refresh_warm.p50_ms"] = percentile(warmMs, 0.5)
		m["eigentrust.refresh_cold.p50_ms"] = percentile(coldMs, 0.5)
		m["eigentrust.iterations.p50"] = percentile(iters, 0.5)
		if computes > 0 {
			m["eigentrust.cold_ratio"] = float64(cold) / float64(computes)
		}
		heapPeak = max(heapPeak, liveHeap())
		if heapPeak > heap0 {
			m["eigentrust.heap_peak_mb"] = float64(heapPeak-heap0) / (1 << 20)
		}
	}
	if sp.Follower {
		if err := b.framePaths(store, baseSeq, written, tr, m); err != nil {
			return layerResult{}, err
		}
		// The follower starts after the timed loop, so its streaming
		// does not share the CPU with the registry spans above.
		if err := b.replicate(store, opts, clock, tr, m); err != nil {
			return layerResult{}, err
		}
	}
	return layerMetrics(b.sp.Mech, ops, tr.snapshot(), m, len(catalog)), nil
}

// layerMetrics turns the replay's spans into the per-layer metrics.
func layerMetrics(mechName string, ops []op, spans []span, m map[string]float64, services int) layerResult {
	dur, self := byName(spans)
	us := func(ns float64) float64 { return ns / 1e3 }
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	mean := func(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }

	if len(ops) > 0 {
		m["resilience.admit_ns"] = sum(dur["resilience.admit"]) / float64(len(ops))
		m["resilience.breaker_do_ns"] = sum(dur["resilience.breaker.do"]) / float64(len(ops))
	}
	if s := dur["registry.submit"]; len(s) > 0 {
		m["registry.submit.p50_us"] = us(percentile(s, 0.5))
		m["registry.submit.p999_us"] = us(percentile(s, 0.999))
		m["registry.submit.max_ms"] = percentile(s, 1) / 1e6
		stalls := 0
		for _, d := range s {
			if d >= float64(10*time.Millisecond) {
				stalls++
			}
		}
		m["registry.submit.stalls_10ms"] = float64(stalls)
	}
	batched, mechRecords := 0, 0
	for _, o := range ops {
		if route(o) == "local-trust" {
			batched += len(o.Ratings)
		}
		mechRecords += len(o.Ratings)
	}
	if batched > 0 {
		m["registry.submit_batch.us_per_record"] = us(sum(dur["registry.submit_batch"])) / float64(batched)
	}
	if mechRecords > 0 {
		m[mechName+".submit_ns"] = sum(dur[mechName+".submit"]) / float64(mechRecords)
	}
	if s := dur["beta.score"]; len(s) > 0 {
		m["beta.score_ns"] = mean(s) / float64(services)
	}
	if s := dur["core.rank"]; len(s) > 0 {
		m["core.rank.p50_us"] = us(percentile(s, 0.5))
	}
	op := map[string]float64{}
	for _, rt := range []string{"submit", "rank", "local-trust", "compute-with-stats"} {
		if s := dur["op."+rt]; len(s) > 0 {
			op[rt] = us(percentile(s, 0.5))
		}
	}
	selfP50 := map[string]float64{}
	for name, s := range self {
		selfP50[name] = us(percentile(s, 0.5))
	}
	return layerResult{Metrics: m, OpP50us: op, SelfP50us: selfP50}
}

func scoreQuery(c core.Candidate) core.Query {
	return core.Query{Subject: c.Service, Context: c.Context, Facet: core.FacetOverall}
}

// liveHeap collects and returns the bytes of heap still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// follower is an in-process replica of the replay's store, fed over
// loopback HTTP by a replica.Source exactly as a wsxd follower is.
type follower struct {
	store  *registry.Store
	srv    *http.Server
	drain  chan struct{}
	cancel context.CancelFunc
	done   chan struct{}
}

// startReplica serves store through a replica.Source, boots a Follower
// into an empty store and times its bootstrap until it has caught up.
func (b *bench) startReplica(store *registry.Store, opts registry.WALOptions, tr *tracer, m map[string]float64) (*follower, error) {
	fstore, _, err := registry.Open(filepath.Join(b.runDir, "replay-follower"), opts)
	if err != nil {
		return nil, err
	}
	f := &follower{store: fstore, drain: make(chan struct{}), done: make(chan struct{})}
	mux := http.NewServeMux()
	(&replica.Source{Store: store, Drain: f.drain}).Register(mux)
	var snapBytes atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/replica/snapshot" {
			w = &countingWriter{ResponseWriter: w, n: &snapBytes}
		}
		mux.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fstore.Close()
		return nil, err
	}
	f.srv = &http.Server{Handler: handler}
	go f.srv.Serve(ln) // returns when stop closes the server
	mech := newMech(b.sp.Mech)
	fol, err := replica.New(replica.Config{
		Primary: "http://" + ln.Addr().String(),
		Store:   fstore,
		Seed:    daemonSeed,
		OnApply: func(fbs []core.Feedback) {
			for _, fb := range fbs {
				_ = mech.Submit(fb) // validated by the primary's store already
			}
		},
		OnReseed: func() {
			mech = newMech(b.sp.Mech)
			_, _ = fstore.Replay(mech) // the replay pass measures serving, not this mechanism
		},
		Logf: func(string, ...any) {},
	})
	if err != nil {
		f.srv.Close()
		fstore.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	t := time.Now()
	id := tr.begin("replica.bootstrap", 0, 0)
	go func() {
		defer close(f.done)
		fol.Run(ctx)
	}()
	err = f.waitCaughtUp(store, 120*time.Second)
	tr.end(id)
	if err != nil {
		f.stop()
		return nil, err
	}
	m["replica.bootstrap_s"] = time.Since(t).Seconds()
	m["replica.bootstrap_bytes"] = float64(snapBytes.Load())
	return f, nil
}

// replicate bootstraps an in-process follower from store, then submits
// one more warm-up's worth of the workload's writes while the follower
// streams them, and checks that it ends with the primary's records.
func (b *bench) replicate(store *registry.Store, opts registry.WALOptions, clock simclock.Clock, tr *tracer, m map[string]float64) error {
	fol, err := b.startReplica(store, opts, tr, m)
	if err != nil {
		return err
	}
	defer fol.stop()
	var lagMax uint64
	for _, o := range b.g.openOps("replica", int(b.sp.Rate*warmupSeconds)) {
		if !o.Write {
			continue
		}
		if err := store.Submit(feedback(o.Ratings[0], clock.Now())); err != nil {
			return err
		}
		lagMax = max(lagMax, store.LastSeq()-fol.store.LastSeq())
	}
	m["replica.lag_max_records"] = float64(lagMax)
	if err := fol.waitCaughtUp(store, 60*time.Second); err != nil {
		b.checkf("%v", err)
	}
	return nil
}

// waitCaughtUp waits until the follower's store holds the primary's
// last sequence number and as many records. The sequence number moves at
// commit, before the records are applied, so both are checked.
func (f *follower) waitCaughtUp(primary *registry.Store, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.store.LastSeq() < primary.LastSeq() || f.store.Len() != primary.Len() {
		if time.Now().After(deadline) {
			return fmt.Errorf("replay follower at seq %d with %d records, primary at seq %d with %d, after %s",
				f.store.LastSeq(), f.store.Len(), primary.LastSeq(), primary.Len(), timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// stop ends replication and waits for the follower loop to exit.
func (f *follower) stop() {
	f.cancel()
	close(f.drain)
	f.srv.Close()
	<-f.done
	f.store.Close()
}

// framePaths times the registry's replication paths on the phase's
// writes: FramesSince on the primary, ApplyReplicated into a fresh copy
// of the fixture (which ends where the phase began).
func (b *bench) framePaths(store *registry.Store, base uint64, n int, tr *tracer, m map[string]float64) error {
	if n == 0 {
		return nil
	}
	var frames []registry.Frame
	t := time.Now()
	id := tr.begin("registry.frames_since", 0, 0)
	for cursor := base; len(frames) < n; {
		fr, err := store.FramesSince(cursor, n-len(frames))
		if err != nil || len(fr) == 0 {
			tr.end(id)
			return fmt.Errorf("frames since %d: %d frames, %v", cursor, len(fr), err)
		}
		frames = append(frames, fr...)
		cursor = fr[len(fr)-1].Seq
	}
	tr.end(id)
	m["registry.frames_since.us_per_frame"] = float64(time.Since(t).Microseconds()) / float64(n)

	dir := filepath.Join(b.runDir, "replay-apply")
	if err := copyDir(b.fixture, dir); err != nil {
		return err
	}
	dst, _, err := registry.Open(dir, registry.WALOptions{SyncEvery: 1})
	if err != nil {
		return err
	}
	defer dst.Close()
	t = time.Now()
	id = tr.begin("registry.apply_replicated", 0, 0)
	for lo := 0; lo < len(frames); lo += 256 { // replica.Follower's default batch
		if _, err := dst.ApplyReplicated(frames[lo:min(lo+256, len(frames))]); err != nil {
			tr.end(id)
			return fmt.Errorf("apply replicated: %w", err)
		}
	}
	tr.end(id)
	m["registry.apply_replicated.us_per_frame"] = float64(time.Since(t).Microseconds()) / float64(n)
	return nil
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}
