// Command perfbench is the repository's benchmark: it builds wsxd from
// the checkout, drives it over HTTP on one of three workloads, checks its
// answers, and prints one JSON result line. With -trace 1 it also replays
// the workload in-process against the layers' public functions and
// prints per-layer metrics instead. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// shedRate pins the daemon's admission rate far above any offered rate,
// so the shedder admits everything and its cost is still paid.
const shedRate = 100000

func main() { os.Exit(run()) }

func run() int {
	var (
		root     = flag.String("root", ".", "root of the checkout to build wsxd from")
		build    = flag.String("build", ".bench_build", "directory for binaries, fixtures and data dirs")
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	)
	flag.Parse()
	runtime.GOMAXPROCS(cpuCount())
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds %d\n", *workload, *seconds)
		return 2
	}
	t := time.Now()
	b := &bench{sp: sp, g: newGen(sp, *seed), seed: *seed, seconds: *seconds,
		info: map[string]any{}, steps: map[string]float64{}}
	out, err := b.run(*root, *build, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.step("total", t)
	info, _ := json.Marshal(b.info) // maps of numbers and strings always encode
	fmt.Printf("perfbench: %s\n", info)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// cpuCount is the number of CPUs this process may run on.
func cpuCount() int { return runtime.NumCPU() }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: one workload, one seed.
type bench struct {
	sp      spec
	g       *gen
	seed    int64
	seconds int

	bin     string
	runDir  string
	fixture string
	load    *http.Client // the measured phase's client: loadConns connections
	ctl     *http.Client // set-up, polling and checks
	info    map[string]any
	steps   map[string]float64 // wall seconds of each step, for the info line
	wrong   []string           // failed correctness checks
}

// step records the wall time since t under name.
func (b *bench) step(name string, t time.Time) { b.steps[name] = time.Since(t).Seconds() }

func (b *bench) run(root, build string, traced bool) (result, error) {
	var err error
	if root, err = filepath.Abs(root); err != nil {
		return result{}, err
	}
	if build, err = filepath.Abs(build); err != nil {
		return result{}, err
	}
	if b.bin, err = buildWsxd(root, build); err != nil {
		return result{}, err
	}
	b.runDir = filepath.Join(build, "runs", fmt.Sprintf("%s-%d", b.sp.Name, os.Getpid()))
	if err := os.RemoveAll(b.runDir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(b.runDir)
	b.load = newClient(loadConns, 30*time.Second)
	b.ctl = newClient(2, 30*time.Second)

	flushDirty()
	t := time.Now()
	if b.fixture, err = buildFixture(b.bin, b.sp, b.g, b.runDir); err != nil {
		return result{}, err
	}
	b.step("fixture", t)
	b.info["steps_s"] = b.steps
	b.info["workload"], b.info["seed"] = b.sp.Name, b.seed
	b.info["daemon_args"] = strings.Join(b.daemonArgs(), " ")
	b.info["loadgen_gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.info["connections"] = loadConns

	if !traced {
		p, err := b.pass("run", setups, b.seconds, nil)
		if err != nil {
			return result{}, err
		}
		b.info["setup_s_each"] = p.setups
		return b.result(p.attempted, p.failed, p.endToEnd()), nil
	}
	return b.tracedRun(build)
}

// daemonArgs is the pinned daemon configuration (without -addr/-data).
func (b *bench) daemonArgs() []string {
	return []string{
		"-mech", b.sp.Mech,
		"-services", strconv.Itoa(b.sp.Services),
		"-category", category,
		"-seed", strconv.Itoa(daemonSeed),
		"-sync-every", "1",
		"-shed-rate", strconv.Itoa(shedRate),
		"-bulkhead", "8",
		"-timeout", "2s",
		"-snapshot-every", strconv.Itoa(b.sp.SnapshotEvery),
	}
}

func (b *bench) result(attempted, failed int, m map[string]metric) result {
	if len(b.wrong) > 0 {
		b.info["check_failures"] = b.wrong
	}
	return result{Correct: len(b.wrong) == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// checkf records a failed correctness check.
func (b *bench) checkf(format string, args ...any) {
	b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
}

// passResult is one measured HTTP phase.
type passResult struct {
	setups            []float64
	samples           []sample
	attempted, failed int
	completed         int
	cpuTicks          int64
	peakRSSKB         int64
	diskBytes         int64
	records           int
	gcCycles          int
	gcCPUms           float64
	windows           []stealWindow // the phase's steal windows
}

// endToEnd computes the end-to-end metrics of a pass.
func (p passResult) endToEnd() map[string]metric {
	var wdue, wend, rdue, rend []time.Time
	for _, s := range p.samples {
		if s.Write {
			wdue, wend = append(wdue, s.Due), append(wend, s.End)
		} else {
			rdue, rend = append(rdue, s.Due), append(rend, s.End)
		}
	}
	kept := keptWindows(p.windows)
	return map[string]metric{
		"setup_s":               {median(p.setups), "s"},
		"write_p50_ms":          {keptP50(wdue, wend, kept), "ms"},
		"read_p50_ms":           {keptP50(rdue, rend, kept), "ms"},
		"cpu_us_per_req":        {float64(p.cpuTicks) * 1e6 / clockTicks / float64(max(p.completed, 1)), "us"},
		"peak_rss_mb":           {float64(p.peakRSSKB) / 1024, "MB"},
		"disk_bytes_per_record": {float64(p.diskBytes) / float64(max(p.records, 1)), "bytes"},
	}
}

// pass sets the workload up setups times from fresh fixture copies
// (the last one stays up), runs the measured phase for seconds, and
// checks the daemon's answers. A non-nil tracer records a span per
// request.
func (b *bench) pass(name string, setups, seconds int, tr *tracer) (passResult, error) {
	var p passResult
	args := b.daemonArgs()
	var server *daemon
	defer func() {
		if server != nil {
			server.kill()
		}
	}()
	// Every fixture copy this pass starts from is restored up front, so
	// one sync flushes them all before the first timed start.
	copies := make([]string, setups)
	for i := range copies {
		copies[i] = fmt.Sprintf("%s-%d", name, i)
		if err := copyDir(b.fixture, filepath.Join(b.runDir, copies[i])); err != nil {
			return p, err
		}
	}
	flushDirty()
	t := time.Now()
	for _, c := range copies {
		if server != nil {
			server.kill()
			if err := os.RemoveAll(server.Dir); err != nil {
				return p, err
			}
		}
		var secs float64
		var err error
		if server, secs, err = b.start(c, args); err != nil {
			return p, err
		}
		p.setups = append(p.setups, secs)
	}
	b.step(name+".setups", t)
	tg := target{Write: server.URL(), Read: server.URL()}

	// The warm-up lets the first collections after recovery and the
	// connections' set-up pass before timing starts.
	flushDirty()
	t = time.Now()
	acked := 0
	for _, s := range b.drive(tg, b.ops(warmupSeconds, true), nil) {
		p.attempted++
		if !s.ok() {
			p.failed++
		} else if s.Write {
			acked += s.Records
		}
	}
	cpu0, err := procCPUTicks(server.Pid())
	if err != nil {
		return p, err
	}
	b.step(name+".warmup", t)
	steal := startStealSampler()
	start := time.Now()
	p.samples = b.drive(tg, b.ops(seconds, false), tr)
	end := time.Now()
	b.step(name+".phase", start)
	cpu1, err := procCPUTicks(server.Pid())
	if err != nil {
		return p, err
	}
	var stealPct float64
	if p.windows, stealPct, err = steal.stop(); err != nil {
		return p, err
	}
	b.info[name+".steal_pct"] = stealPct
	b.info[name+".windows_kept_pct"] = 100 * float64(len(keptWindows(p.windows))) / float64(max(len(p.windows), 1))
	p.cpuTicks = cpu1 - cpu0
	for _, s := range p.samples {
		p.attempted++
		if !s.ok() {
			p.failed++
			continue
		}
		p.completed++
		if s.Write {
			acked += s.Records
		}
	}
	if p.peakRSSKB, err = procPeakRSSKB(server.Pid()); err != nil {
		return p, err
	}
	if p.diskBytes, err = dirBytes(server.Dir); err != nil {
		return p, err
	}
	if p.records, err = readyRecords(b.ctl, server.URL()); err != nil {
		return p, err
	}
	p.gcCycles, p.gcCPUms = server.gcBetween(start, end)
	b.info[name+".gc_cycles"], b.info[name+".gc_cpu_ms"] = p.gcCycles, p.gcCPUms
	b.reportLateness(p.samples, server)
	t = time.Now()
	b.checkPass(p.samples, server, args, acked)
	b.step(name+".checks", t)
	return p, nil
}

// setups is how many times an untraced run sets the workload up from a
// fresh fixture copy; setup_s is their median.
const setups = 5

// warmupSeconds is how long each pass drives the daemon before the
// measured phase.
const warmupSeconds = 2

// ops returns the requests of a phase of the given length. The warm-up
// and the measured phase draw from separate streams; in the closed loop
// the phase's batches continue the warm-up's sequence.
func (b *bench) ops(seconds int, warm bool) []op {
	if b.sp.Rate > 0 {
		purpose := "ops"
		if warm {
			purpose = "warmup"
		}
		return b.g.openOps(purpose, int(b.sp.Rate*float64(seconds)))
	}
	first := 0
	if !warm {
		first = int(b.sp.Pace * warmupSeconds)
	}
	return b.g.closedOps(first, int(b.sp.Pace*float64(seconds)))
}

// drive sends ops to tg in the workload's loop.
func (b *bench) drive(tg target, ops []op, tr *tracer) []sample {
	var done func(*sample)
	if tr != nil {
		done = func(s *sample) {
			root := tr.add("request", int64(s.Op+1), 0, s.Due, s.End)
			tr.add("wsxd."+s.Route, int64(s.Op+1), root, s.Start, s.End)
		}
	}
	keep := func(i int, o op) bool { return !o.Write && (b.sp.Rate == 0 || i%50 == 0) }
	if b.sp.Rate > 0 {
		return runOpen(b.load, tg, ops, b.sp.Rate, keep, done)
	}
	return runClosed(b.load, tg, ops, time.Duration(float64(time.Second)/b.sp.Pace), keep, done)
}

// start launches the daemon on the restored fixture copy name and times
// it from launch to its first 200 from /readyz.
func (b *bench) start(name string, args []string) (*daemon, float64, error) {
	dir := filepath.Join(b.runDir, name)
	t := time.Now()
	d, err := startDaemon(b.bin, dir, dir+".log", args)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitReady(b.ctl, 120*time.Second); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(t).Seconds(), nil
}

// flushDirty writes back every dirty page before a timed step. The
// fixture copies and earlier runs leave tens of MB dirty, and their
// background writeback would otherwise compete with the daemon's fsyncs
// at a moment that differs from run to run.
func flushDirty() { syscall.Sync() }

// reportLateness records how late the generator sent requests relative
// to their due times, and whether the load generator and the daemon
// share CPUs.
func (b *bench) reportLateness(samples []sample, server *daemon) {
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = float64(s.Start.Sub(s.Due)) / float64(time.Millisecond)
	}
	sort.Float64s(late)
	b.info["send_late_ms_p50"] = percentileSorted(late, 0.5)
	b.info["send_late_ms_p99"] = percentileSorted(late, 0.99)
	b.info["send_late_ms_max"] = percentileSorted(late, 1)
	b.info["cpus"] = cpuCount()
	self, err := procCPUSet(os.Getpid())
	if err != nil {
		return
	}
	cpus, err := procCPUSet(server.Pid())
	if err != nil {
		return
	}
	shared := false
	for c := range cpus {
		shared = shared || self[c]
	}
	b.info["loadgen_and_daemon_share_cpus"] = shared
}

// checkPass runs the correctness checks after a phase: sampled read
// answers, rank answers, and acked-write durability across a drain and
// restart.
func (b *bench) checkPass(samples []sample, server *daemon, args []string, acked int) {
	for _, s := range samples {
		if s.Body == nil || !s.ok() {
			continue
		}
		var err error
		if s.Route == "rank" {
			err = checkRank(s.Body, s.N, b.sp.Services)
		} else {
			err = checkCompute(s.Body, b.sp.Services)
		}
		if err != nil {
			b.checkf("request %d: %v", s.Op, err)
		}
	}
	if err := checkRanks(b.ctl, server.URL(), b.sp.Services); err != nil {
		b.checkf("%v", err)
	}
	if err := checkDurable(b.ctl, server, b.bin, args, b.sp.Records+acked); err != nil {
		b.checkf("%v", err)
	}
}
