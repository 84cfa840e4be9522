package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// fixtureBatch is the largest /local-trust batch wsxd accepts.
const fixtureBatch = 4096

// buildFixture creates the workload's data dir through wsxd's own HTTP
// API: /local-trust batches into a fresh daemon, then /drain, so the
// fixture follows whatever on-disk format the daemon writes. Runs never
// use this dir directly; each restores a byte copy (see copyDir).
func buildFixture(bin string, sp spec, g *gen, runDir string) (string, error) {
	dir := filepath.Join(runDir, "fixture")
	args := []string{"-mech", sp.Mech, "-services", strconv.Itoa(sp.Services),
		"-shed-rate", "1000000", "-sync-every", "1",
		"-snapshot-every", "0"} // one snapshot, at drain
	d, err := startDaemon(bin, dir, dir+".log", args)
	if err != nil {
		return "", err
	}
	defer d.kill()
	c := newClient(1, 60*time.Second)
	if err := d.waitReady(c, 120*time.Second); err != nil {
		return "", fmt.Errorf("fixture: %w", err)
	}
	recs := g.fixture()
	for lo := 0; lo < len(recs); lo += fixtureBatch {
		hi := min(lo+fixtureBatch, len(recs))
		body, err := json.Marshal(map[string][]rating{"ratings": recs[lo:hi]})
		if err != nil {
			return "", err
		}
		resp, err := c.Post(d.URL()+"/local-trust", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", fmt.Errorf("fixture batch at %d: %w", lo, err)
		}
		msg, _ := io.ReadAll(resp.Body) // only used in the error below
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("fixture batch at %d: status %d: %s", lo, resp.StatusCode, msg)
		}
	}
	if err := d.drain(c); err != nil {
		return "", fmt.Errorf("fixture: %w", err)
	}
	return dir, nil
}

// copyDir restores a pristine byte copy of the fixture's files into dst.
// Drain rewrites snapshot.wsx, so a reused dir would change the recovery
// work of the next start.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
