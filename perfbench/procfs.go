package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture the kernel ABI exposes.
const clockTicks = 100

// parseStatCPU extracts utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces or parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(stat []byte) (int64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 here.
	f := strings.Fields(string(stat[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns the value in kB of a "Key:   N kB" line of
// /proc/<pid>/status, e.g. VmHWM (peak resident set).
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// parseCPUList parses a kernel CPU list such as "0-3,6" into a set.
func parseCPUList(s string) (map[int]bool, error) {
	set := map[int]bool{}
	for _, part := range strings.Split(strings.TrimSpace(s), ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("cpu list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("cpu list %q: %w", s, err)
			}
		}
		for c := a; c <= b; c++ {
			set[c] = true
		}
	}
	return set, nil
}

// procCPUSet reads the CPUs a live process may run on.
func procCPUSet(pid int) (map[int]bool, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return parseCPUList(v)
		}
	}
	return nil, fmt.Errorf("/proc/%d/status: no Cpus_allowed_list", pid)
}

// parseHostSteal returns, from the contents of /proc/stat, the ticks the
// hypervisor stole from this machine's CPUs and the total ticks, both
// summed over all CPUs since boot.
func parseHostSteal(stat []byte) (steal, total int64, err error) {
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// hostSteal reads parseHostSteal's counters now.
func hostSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostSteal(b)
}

// stealEvery is how often the host's steal counters are read during a
// measured phase: the width of a steal window.
const stealEvery = 250 * time.Millisecond

// stealSampler reads the host's steal counters every stealEvery from its
// start until stop.
type stealSampler struct {
	quit, done chan struct{}
	at         []time.Time // written only by the sampling goroutine until done closes
	steal      []int64
	total      []int64
	err        error
}

func (s *stealSampler) read() bool {
	steal, total, err := hostSteal()
	if err != nil {
		s.err = err
		return false
	}
	s.at, s.steal, s.total = append(s.at, time.Now()), append(s.steal, steal), append(s.total, total)
	return true
}

// startStealSampler takes a first reading before it returns, so every
// request of the phase falls in a window, and keeps reading until stop.
func startStealSampler() *stealSampler {
	s := &stealSampler{quit: make(chan struct{}), done: make(chan struct{})}
	if !s.read() {
		close(s.done)
		return s
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.read()
				return
			case <-tick.C:
				if !s.read() {
					return
				}
			}
		}
	}()
	return s
}

// stop takes a last reading and returns the windows between readings,
// and the steal share over all of them.
func (s *stealSampler) stop() ([]stealWindow, float64, error) {
	close(s.quit)
	<-s.done
	if s.err != nil {
		return nil, 0, s.err
	}
	var ws []stealWindow
	for i := 1; i < len(s.at); i++ {
		ws = append(ws, stealWindow{From: s.at[i-1], To: s.at[i],
			Pct: 100 * float64(s.steal[i]-s.steal[i-1]) / float64(max(s.total[i]-s.total[i-1], 1))})
	}
	n := len(s.at) - 1
	if n < 1 {
		return ws, 0, nil
	}
	return ws, 100 * float64(s.steal[n]-s.steal[0]) / float64(max(s.total[n]-s.total[0], 1)), nil
}

// procCPUTicks reads the CPU time a live process has used so far.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procPeakRSSKB reads a live process's peak resident set (VmHWM).
func procPeakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmHWM")
}

// gcCycle is one line of GODEBUG=gctrace=1 output.
type gcCycle struct {
	// CPUms is the CPU the cycle spent on the collector's behalf: sweep
	// termination, mark assists, background marking and mark
	// termination. Idle-time marking is left out; it runs only on
	// otherwise idle processors.
	CPUms float64
}

// parseGCTrace parses a gctrace line of the form
//
//	gc 7 @1.234s 3%: 0.01+1.2+0.02 ms clock, 0.03+0.4/1.1/0.9+0.05 ms cpu, 4->5->2 MB, ...
//
// and reports ok=false for any other line.
func parseGCTrace(line string) (gcCycle, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return gcCycle{}, false
	}
	_, after, ok := strings.Cut(line, " ms clock, ")
	if !ok {
		return gcCycle{}, false
	}
	cpu, _, ok := strings.Cut(after, " ms cpu")
	if !ok {
		return gcCycle{}, false
	}
	// cpu is "a+b/c/d+e": sweep term + (assist/background/idle) + mark term.
	parts := strings.Split(cpu, "+")
	if len(parts) != 3 {
		return gcCycle{}, false
	}
	mark := strings.Split(parts[1], "/")
	if len(mark) != 3 {
		return gcCycle{}, false
	}
	var sum float64
	for _, s := range []string{parts[0], mark[0], mark[1], parts[2]} {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return gcCycle{}, false
		}
		sum += v
	}
	return gcCycle{CPUms: sum}, true
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// selfWriteBytes reads wchar from /proc/self/io: bytes this process has
// passed to write-family system calls so far.
func selfWriteBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io: no wchar line")
}
