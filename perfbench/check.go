package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// checkRank verifies a /rank response: min(n, catalog) entries, scores in
// descending order.
func checkRank(body []byte, n, catalog int) error {
	var resp struct {
		Ranked []struct {
			Service string  `json:"service"`
			Score   float64 `json:"score"`
		} `json:"ranked"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	if want := min(n, catalog); len(resp.Ranked) != want {
		return fmt.Errorf("rank n=%d: %d entries, want %d", n, len(resp.Ranked), want)
	}
	for i := 1; i < len(resp.Ranked); i++ {
		if resp.Ranked[i].Score > resp.Ranked[i-1].Score {
			return fmt.Errorf("rank n=%d: entry %d (%s, %g) outranks entry %d (%s, %g)", n,
				i, resp.Ranked[i].Service, resp.Ranked[i].Score,
				i-1, resp.Ranked[i-1].Service, resp.Ranked[i-1].Score)
		}
	}
	return nil
}

// checkCompute verifies a /compute-with-stats response: residual at most
// 1e-9 and every catalog service known (the fixture rates them all).
func checkCompute(body []byte, catalog int) error {
	var resp struct {
		Scores []struct {
			Service string `json:"service"`
			Known   bool   `json:"known"`
		} `json:"scores"`
		Stats *struct {
			Residual float64 `json:"residual"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("compute-with-stats: %w", err)
	}
	if resp.Stats == nil {
		return fmt.Errorf("compute-with-stats: no stats")
	}
	if resp.Stats.Residual > 1e-9 {
		return fmt.Errorf("compute-with-stats: residual %g > 1e-9", resp.Stats.Residual)
	}
	if len(resp.Scores) != catalog {
		return fmt.Errorf("compute-with-stats: %d scores, want %d", len(resp.Scores), catalog)
	}
	for _, s := range resp.Scores {
		if !s.Known {
			return fmt.Errorf("compute-with-stats: rated service %s not known", s.Service)
		}
	}
	return nil
}

// readyRecords returns the record count /readyz reports.
func readyRecords(c *http.Client, base string) (int, error) {
	st, _, body, err := get(c, base+"/readyz")
	if err != nil {
		return 0, err
	}
	if st != http.StatusOK {
		return 0, fmt.Errorf("readyz: status %d", st)
	}
	var r struct {
		Records int `json:"records"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("readyz: %w", err)
	}
	return r.Records, nil
}

// checkRanks sends /rank with n=5 and n past the catalog and checks both
// answers.
func checkRanks(c *http.Client, base string, catalog int) error {
	for _, n := range []int{5, catalog + 7} {
		st, _, body, err := get(c, base+"/rank?consumer=perfbench&n="+strconv.Itoa(n))
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			return fmt.Errorf("rank n=%d: status %d", n, st)
		}
		if err := checkRank(body, n, catalog); err != nil {
			return err
		}
	}
	return nil
}

// checkDurable drains the daemon, restarts it on the same data dir and
// checks that it recovers exactly the fixture's records plus every
// acknowledged write.
func checkDurable(c *http.Client, d *daemon, bin string, args []string, want int) error {
	if err := d.drain(c); err != nil {
		return err
	}
	r, err := startDaemon(bin, d.Dir, d.Dir+".restart.log", args)
	if err != nil {
		return err
	}
	defer r.kill()
	if err := r.waitReady(c, 120*time.Second); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	got, err := readyRecords(c, r.URL())
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("durability: restart recovered %d records, want fixture + acked = %d", got, want)
	}
	return nil
}
