package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadConns is the load generator's connection limit, shared by its workers.
const loadConns = 2

// sample is the outcome of one request of a measured phase.
type sample struct {
	Op              int // index into the phase's op list
	Write           bool
	Route           string
	N               int // /rank's n
	Records         int // records a write carries
	Due, Start, End time.Time
	Status          int    // 0 on a transport error or timeout
	Bytes           int    // response body size
	Body            []byte // kept only when the checks read it
}

func (s sample) ok() bool { return s.Status >= 200 && s.Status < 300 }

// target says where a phase sends its writes and its reads.
type target struct {
	Write, Read string // base URLs
}

// keepBody says whether a sample keeps its response body for the
// correctness checks.
type keepBody func(i int, o op) bool

// do sends one op and fills in the sample's timing and outcome.
func do(c *http.Client, tg target, o op, s *sample, keep bool) {
	var req *http.Request
	var err error
	if o.Write {
		req, err = http.NewRequest(http.MethodPost, tg.Write+o.Path, bytes.NewReader(o.Body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, tg.Read+o.Path, nil)
	}
	s.Write, s.Route, s.N = o.Write, route(o), o.N
	if o.Write {
		s.Records = len(o.Ratings)
	}
	s.Start = time.Now()
	if err != nil {
		s.End = time.Now()
		return
	}
	resp, err := c.Do(req)
	if err != nil {
		s.End = time.Now()
		return
	}
	if keep {
		s.Body, err = io.ReadAll(resp.Body)
		s.Bytes = len(s.Body)
	} else {
		var n int64
		n, err = io.Copy(io.Discard, resp.Body)
		s.Bytes = int(n)
	}
	resp.Body.Close()
	s.End = time.Now()
	if err == nil {
		s.Status = resp.StatusCode
	}
}

// route names the endpoint an op calls, as the per-layer metrics do.
func route(o op) string {
	switch {
	case o.Path == "/submit":
		return "submit"
	case o.Path == "/local-trust":
		return "local-trust"
	case o.N > 0:
		return "rank"
	default:
		return "compute-with-stats"
	}
}

// runOpen sends ops on a fixed schedule, one every 1/rate seconds, from
// loadConns workers. Each request is due at its scheduled time whether
// or not earlier ones have finished, so a stall shows in the latency of
// every request due during it. A non-nil done sees each sample as it
// completes.
func runOpen(c *http.Client, tg target, ops []op, rate float64, keep keepBody, done func(*sample)) []sample {
	out := make([]sample, len(ops))
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				sleepUntil(due)
				s := &out[i]
				s.Op, s.Due = i, due
				do(c, tg, ops[i], s, keep(i, ops[i]))
				if done != nil {
					done(s)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed is the closed loop of one client. ops alternate a batch
// write and a read; iteration k (ops 2k and 2k+1) starts no earlier than
// k slots after the first, so every run does the same work at the same
// pace while the daemon keeps up. Each request is timed from its send.
func runClosed(c *http.Client, tg target, ops []op, slot time.Duration, keep keepBody, done func(*sample)) []sample {
	out := make([]sample, len(ops))
	t0 := time.Now()
	for i, o := range ops {
		if i%2 == 0 {
			sleepUntil(t0.Add(time.Duration(i/2) * slot))
		}
		s := &out[i]
		s.Op = i
		do(c, tg, o, s, keep(i, o))
		s.Due = s.Start
		if done != nil {
			done(s)
		}
	}
	return out
}

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than on a
// Go timer: an idle Go runtime waits for timers in epoll with millisecond
// resolution, which would make every request up to 1 ms late.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
