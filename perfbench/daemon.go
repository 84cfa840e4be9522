package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// buildWsxd compiles the daemon from the checkout's source.
func buildWsxd(root, build string) (string, error) {
	bin := filepath.Join(build, "wsxd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wsxd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/wsxd: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// daemon is one running wsxd process.
type daemon struct {
	cmd  *exec.Cmd
	Addr string
	Dir  string

	done    chan struct{} // closed when the process has exited
	waitErr error         // set before done closes
	logs    sync.WaitGroup

	mu sync.Mutex
	gc []gcEvent // guarded by mu
}

// gcEvent is a parsed gctrace line and when perfbench read it.
type gcEvent struct {
	At    time.Time
	CPUms float64
}

// startDaemon launches bin with args plus -addr and -data, logging its
// output to logPath. The daemon runs under GODEBUG=gctrace=1, one stderr
// line per collection, and its collections are recorded.
func startDaemon(bin, dir, logPath string, args []string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	all := append([]string{"-addr", addr, "-data", dir}, args...)
	d := &daemon{Addr: addr, Dir: dir, done: make(chan struct{})}
	d.cmd = exec.Command(bin, all...)
	// The daemon dies with perfbench even if perfbench is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cpuCount()), "GODEBUG=gctrace=1")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d.cmd.Stdout = logf
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start wsxd: %w", err)
	}
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		d.scanStderr(stderr, logf)
	}()
	go func() {
		d.logs.Wait()
		d.waitErr = d.cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// scanStderr copies the daemon's stderr to the log and records gctrace
// lines as they arrive.
func (d *daemon) scanStderr(r io.Reader, log io.Writer) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if c, ok := parseGCTrace(line); ok {
			d.mu.Lock()
			d.gc = append(d.gc, gcEvent{At: time.Now(), CPUms: c.CPUms})
			d.mu.Unlock()
			continue
		}
		fmt.Fprintln(log, line)
	}
}

// gcBetween returns the collections read between from and to.
func (d *daemon) gcBetween(from, to time.Time) (cycles int, cpuMs float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.gc {
		if !e.At.Before(from) && e.At.Before(to) {
			cycles++
			cpuMs += e.CPUms
		}
	}
	return cycles, cpuMs
}

func (d *daemon) Pid() int     { return d.cmd.Process.Pid }
func (d *daemon) URL() string  { return "http://" + d.Addr }
func (d *daemon) exited() bool { return isClosed(d.done) }

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// waitUntil polls probe every 5 ms until it reports true, the daemon
// exits, or timeout passes.
func (d *daemon) waitUntil(timeout time.Duration, probe func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if probe() {
			return nil
		}
		if d.exited() {
			return fmt.Errorf("wsxd exited: %v (log %s)", d.waitErr, d.Dir+".log")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wsxd at %s: not ready after %s", d.Addr, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitReady blocks until /readyz answers 200.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	return d.waitUntil(timeout, func() bool {
		resp, err := c.Get(d.URL() + "/readyz")
		if err != nil {
			return false
		}
		drainClose(resp)
		return resp.StatusCode == http.StatusOK
	})
}

// drain asks the daemon to shut down gracefully and waits for it to exit
// with status 0.
func (d *daemon) drain(c *http.Client) error {
	resp, err := c.Post(d.URL()+"/drain", "application/json", nil)
	if err != nil {
		d.kill()
		return fmt.Errorf("drain: %w", err)
	}
	drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return fmt.Errorf("drain: status %d", resp.StatusCode)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("drain: wsxd still running after 60s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("drain: wsxd exited: %v", d.waitErr)
	}
	return nil
}

// kill stops the daemon at once and waits until it has exited.
func (d *daemon) kill() {
	if !d.exited() {
		_ = d.cmd.Process.Signal(syscall.SIGKILL) // it may have exited since the check
	}
	<-d.done
}

// drainClose discards and closes a response body so its connection is
// reused.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // best effort: only frees the connection
	resp.Body.Close()
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
}

// get issues a GET and returns status, headers and body.
func get(c *http.Client, url string) (int, http.Header, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}
