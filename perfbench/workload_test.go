package main

import (
	"reflect"
	"strings"
	"testing"
)

// The same seed gives the same inputs; another seed gives others.
func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		sp.Records = 2000 // the shape, not the size, is under test
		a, b, c := newGen(sp, 7), newGen(sp, 7), newGen(sp, 8)
		if !reflect.DeepEqual(a.fixture(), b.fixture()) {
			t.Errorf("%s: fixture differs for one seed", sp.Name)
		}
		if reflect.DeepEqual(a.fixture(), c.fixture()) {
			t.Errorf("%s: fixture identical for seeds 7 and 8", sp.Name)
		}
		if sp.Rate > 0 {
			if !reflect.DeepEqual(a.openOps("ops", 300), b.openOps("ops", 300)) {
				t.Errorf("%s: ops differ for one seed", sp.Name)
			}
			if reflect.DeepEqual(a.openOps("ops", 300), c.openOps("ops", 300)) {
				t.Errorf("%s: ops identical for seeds 7 and 8", sp.Name)
			}
		} else {
			if !reflect.DeepEqual(a.closedOps(3, 20), b.closedOps(3, 20)) {
				t.Errorf("%s: batches differ for one seed", sp.Name)
			}
			if reflect.DeepEqual(a.closedOps(3, 20), c.closedOps(3, 20)) {
				t.Errorf("%s: batches identical for seeds 7 and 8", sp.Name)
			}
		}
	}
}

func TestFixtureRatesWholeCatalog(t *testing.T) {
	sp, _ := specByName("rank-read")
	seen := map[string]bool{}
	for _, r := range newGen(sp, 1).fixture() {
		seen[r.Service] = true
		if r.Rating < 0 || r.Rating > 1 || r.Context != category {
			t.Fatalf("bad record %+v", r)
		}
	}
	if len(seen) != sp.Services {
		t.Errorf("fixture rates %d services, want %d", len(seen), sp.Services)
	}
}

func TestOpenOpsMix(t *testing.T) {
	sp, _ := specByName("ingest-durable")
	ops := newGen(sp, 3).openOps("ops", 10000)
	writes := 0
	for _, o := range ops {
		if o.Write {
			writes++
			if o.Path != "/submit" || len(o.Ratings) != 1 {
				t.Fatalf("bad write %+v", o)
			}
		} else if !strings.HasPrefix(o.Path, "/rank?") || o.N != 5 {
			t.Fatalf("bad read %+v", o)
		}
	}
	if share := float64(writes) / float64(len(ops)); share < 0.88 || share > 0.92 {
		t.Errorf("write share %.3f, want about %.2f", share, sp.WriteShare)
	}
}

// Every NewEvery-th batch brings consumers no earlier batch or the
// fixture used, which is what forces eigentrust's cold rebase.
func TestBatchNewcomers(t *testing.T) {
	sp, _ := specByName("trust-stream")
	g := newGen(sp, 1)
	seen := map[string]bool{}
	for k := 0; k < 3*sp.NewEvery; k++ {
		fresh := 0
		for _, r := range g.batch(k).Ratings {
			if r.Consumer >= consumerID(sp.Consumers) && !seen[r.Consumer] {
				fresh++
			}
			seen[r.Consumer] = true
		}
		want := 0
		if k%sp.NewEvery == sp.NewEvery-1 {
			want = sp.NewPerBatch
		}
		if fresh != want {
			t.Errorf("batch %d: %d new consumers, want %d", k, fresh, want)
		}
	}
}
