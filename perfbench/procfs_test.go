package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; fields count from
	// the last ')'. utime=1234, stime=56.
	stat := "4242 (wsxd (x) y) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 56 0 0 20 0 9 0 100 0 0\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil || got != 1290 {
		t.Fatalf("parseStatCPU = %d, %v; want 1290", got, err)
	}
	if _, err := parseStatCPU([]byte("4242 (wsxd) S 1 2")); err == nil {
		t.Error("parseStatCPU accepted a short line")
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("parseStatCPU accepted a line without a command field")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\twsxd\nVmPeak:\t  900000 kB\nVmHWM:\t   52344 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil || got != 52344 {
		t.Fatalf("VmHWM = %d, %v; want 52344", got, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing key reported no error")
	}
}

func TestProcReadsLiveProcess(t *testing.T) {
	ticks, err := procCPUTicks(os.Getpid())
	if err != nil || ticks < 0 {
		t.Fatalf("procCPUTicks(self) = %d, %v", ticks, err)
	}
	hwm, err := procPeakRSSKB(os.Getpid())
	if err != nil || hwm <= 0 {
		t.Fatalf("procPeakRSSKB(self) = %d, %v", hwm, err)
	}
}

func TestParseGCTrace(t *testing.T) {
	line := "gc 12 @3.456s 4%: 0.020+1.5+0.031 ms clock, 0.040+0.30/1.2/2.5+0.062 ms cpu, 38->39->20 MB, 40 MB goal, 0 MB stacks, 0 MB globals, 2 P"
	c, ok := parseGCTrace(line)
	// idle marking (2.5) is excluded: 0.040 + 0.30 + 1.2 + 0.062.
	if !ok || c.CPUms < 1.6019 || c.CPUms > 1.6021 {
		t.Fatalf("parseGCTrace = %+v, %v; want CPUms 1.602", c, ok)
	}
	for _, bad := range []string{
		"wsxd: listening on 127.0.0.1:1",
		"gc 1 @0.1s 1%: garbage",
		"gc 1 @0.1s 1%: 0.1+0.2+0.3 ms clock, 0.1+x/0.2/0.3+0.4 ms cpu, 4->4->0 MB",
	} {
		if _, ok := parseGCTrace(bad); ok {
			t.Errorf("parseGCTrace accepted %q", bad)
		}
	}
}

func TestParseCPUList(t *testing.T) {
	got, err := parseCPUList(" 0-2,5\n")
	if err != nil || len(got) != 4 || !got[0] || !got[2] || !got[5] || got[3] {
		t.Fatalf("parseCPUList = %v, %v", got, err)
	}
	if _, err := parseCPUList("0-x"); err == nil {
		t.Error("parseCPUList accepted 0-x")
	}
	self, err := procCPUSet(os.Getpid())
	if err != nil || len(self) == 0 {
		t.Fatalf("procCPUSet(self) = %v, %v", self, err)
	}
}

func TestParseHostSteal(t *testing.T) {
	stat := "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n"
	steal, total, err := parseHostSteal([]byte(stat))
	if err != nil || steal != 30 || total != 1000 {
		t.Fatalf("parseHostSteal = %d, %d, %v; want 30, 1000", steal, total, err)
	}
	if _, _, err := parseHostSteal([]byte("intr 1 2 3\n")); err == nil {
		t.Error("parseHostSteal accepted a line that is not the cpu total")
	}
}
