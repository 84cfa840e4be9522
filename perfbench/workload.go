package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"
)

// spec is one named workload: the fixture the daemon recovers, the
// daemon's pinned configuration, and the traffic of the measured phase.
type spec struct {
	Name string
	Mech string // -mech: beta or eigentrust

	Services  int // -services: catalog size
	Consumers int // distinct consumers in the fixture
	Records   int // fixture records

	// Open loop: Rate requests/second, WriteShare of them writes
	// (/submit), the rest /rank with n drawn from RankN. Rate 0 selects
	// the closed loop below.
	Rate       float64
	WriteShare float64
	RankN      []int

	// Closed loop with one client: POST a Batch-rating /local-trust,
	// then GET /compute-with-stats, at most Pace times a second. Every
	// NewEvery-th batch brings NewPerBatch consumers the roster has not
	// seen.
	Pace        float64
	Batch       int
	NewEvery    int
	NewPerBatch int

	// SnapshotEvery pins -snapshot-every: records between compactions,
	// 0 compacts only on drain.
	SnapshotEvery int
	// Follower has the traced run's in-process replay also bootstrap a
	// replica.Follower from the replayed store and stream writes to it.
	Follower bool
}

var specs = []spec{
	{
		Name: "ingest-durable",
		Mech: "beta", Services: 16, Consumers: 5000, Records: 100_000,
		Rate: 400, WriteShare: 0.9, RankN: []int{5},
		SnapshotEvery: 2000, Follower: true,
	},
	{
		Name: "rank-read",
		Mech: "beta", Services: 256, Consumers: 5000, Records: 100_000,
		// Three reads in four ask for the whole catalog, so the read
		// median falls inside that mode rather than between the two.
		Rate: 800, WriteShare: 0.05, RankN: []int{5, 256, 256, 256},
		SnapshotEvery: 4096, // the daemon's default
	},
	{
		Name: "trust-stream",
		Mech: "eigentrust", Services: 16, Consumers: 2000, Records: 50_000,
		Pace: 16, Batch: 256, NewEvery: 8, NewPerBatch: 4,
		SnapshotEvery: 0,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// category is the daemon's default catalog category; ratings carry it as
// their context so the mechanism scores the catalog's own services.
const category = "compute"

// rating is one feedback record in the shape /submit and /local-trust
// take.
type rating struct {
	Consumer string  `json:"consumer"`
	Service  string  `json:"service"`
	Provider string  `json:"provider"`
	Context  string  `json:"context"`
	Rating   float64 `json:"rating"`
}

// op is one request of a measured phase.
type op struct {
	Write    bool
	Ratings  []rating // the records a write carries
	N        int      // reads: /rank's n (0 for /compute-with-stats)
	Consumer string   // reads: the asking consumer
	Body     []byte   // writes: the request body
	Path     string   // the request path and query
}

// gen draws a workload's inputs from the seed alone; the daemon only ever
// sees what gen produced.
type gen struct {
	sp      spec
	seed    int64
	quality []float64 // per-service mean rating
}

func newGen(sp spec, seed int64) *gen {
	g := &gen{sp: sp, seed: seed}
	r := g.rng("quality")
	g.quality = make([]float64, sp.Services)
	for i := range g.quality {
		g.quality[i] = 0.15 + 0.8*r.Float64()
	}
	return g
}

// rng returns a stream keyed by (seed, workload, purpose), so adding a
// draw for one purpose never shifts another's inputs.
func (g *gen) rng(purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", g.sp.Name, purpose)
	return rand.New(rand.NewPCG(uint64(g.seed), h.Sum64()))
}

func consumerID(i int) string { return fmt.Sprintf("c%05d", i) }

// serviceID and providerID follow wsxd's demo catalog: service i+1 is
// offered by provider i+1.
func serviceID(i int) string  { return fmt.Sprintf("s%03d", i+1) }
func providerID(i int) string { return fmt.Sprintf("p%03d", i+1) }

func (g *gen) draw(r *rand.Rand, consumer string) rating {
	s := r.IntN(g.sp.Services)
	v := g.quality[s] + 0.5*(r.Float64()-0.5)
	v = math.Round(math.Min(1, math.Max(0, v))*1000) / 1000
	return rating{Consumer: consumer, Service: serviceID(s), Provider: providerID(s),
		Context: category, Rating: v}
}

// fixture returns the records the workload's data dir is built from.
// Every catalog service is rated at least once.
func (g *gen) fixture() []rating {
	r := g.rng("fixture")
	out := make([]rating, g.sp.Records)
	for i := range out {
		out[i] = g.draw(r, consumerID(r.IntN(g.sp.Consumers)))
		if i < g.sp.Services {
			out[i].Service, out[i].Provider = serviceID(i), providerID(i)
		}
	}
	return out
}

// openOps returns n open-loop requests drawn from the named stream.
func (g *gen) openOps(purpose string, n int) []op {
	r := g.rng(purpose)
	ops := make([]op, n)
	for i := range ops {
		consumer := consumerID(r.IntN(g.sp.Consumers))
		if r.Float64() < g.sp.WriteShare {
			rt := g.draw(r, consumer)
			body, _ := json.Marshal(rt) // a struct of strings and a float always encodes
			ops[i] = op{Write: true, Ratings: []rating{rt}, Body: body, Path: "/submit"}
			continue
		}
		nn := g.sp.RankN[r.IntN(len(g.sp.RankN))]
		q := url.Values{"consumer": {consumer}, "n": {strconv.Itoa(nn)}}
		ops[i] = op{N: nn, Consumer: consumer, Path: "/rank?" + q.Encode()}
	}
	return ops
}

// closedOps returns n closed-loop iterations, batches first..first+n-1,
// each a /local-trust write followed by a /compute-with-stats read.
func (g *gen) closedOps(first, n int) []op {
	ops := make([]op, 0, 2*n)
	for k := first; k < first+n; k++ {
		ops = append(ops, g.batch(k), op{Path: "/compute-with-stats"})
	}
	return ops
}

// batch returns closed-loop batch k: the /local-trust write. Batches are
// keyed by k alone, so a run that gets further sees the same prefix.
func (g *gen) batch(k int) op {
	r := g.rng("batch/" + strconv.Itoa(k))
	rts := make([]rating, g.sp.Batch)
	fresh := 0
	if g.sp.NewEvery > 0 && k%g.sp.NewEvery == g.sp.NewEvery-1 {
		fresh = g.sp.NewPerBatch
	}
	for i := range rts {
		var c string
		if i < fresh {
			// New consumers are numbered past the fixture's roster and
			// past every earlier batch's newcomers.
			c = consumerID(g.sp.Consumers + (k/g.sp.NewEvery)*g.sp.NewPerBatch + i)
		} else {
			c = consumerID(r.IntN(g.sp.Consumers))
		}
		rts[i] = g.draw(r, c)
	}
	body, _ := json.Marshal(map[string][]rating{"ratings": rts}) // always encodes
	return op{Write: true, Ratings: rts, Body: body, Path: "/local-trust"}
}
