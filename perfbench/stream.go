package main

import (
	"fmt"
	"math/rand"
	"sort"

	disclosure "repro"
	"repro/internal/cq"
	"repro/internal/fb"
	"repro/internal/label"
	"repro/internal/workload"
)

// spec is one named workload: which deployment it runs against and which
// traffic its clients send.
type spec struct {
	name string
	// durable opens the primary with disclosure.OpenDurable (see
	// durability); otherwise the primary is in-memory.
	durable bool
	// cold makes every submission a template never seen before instead of
	// a replay of the app's bounded template pool.
	cold bool
	// onboarding mixes policy installs into each client's stream: new apps
	// until the principal cap, then replacements of existing policies.
	onboarding bool
	// maxAtoms bounds query size (a multiple of 3; Figure 5 goes to 15).
	maxAtoms int
	// rateCap bounds the operations one client can complete per second;
	// it sizes the pre-generated stream. A client that runs out ends the
	// timed phase early (for all clients) instead of wrapping around.
	rateCap int
}

var specs = []spec{
	{name: "steady-warm", durable: true, maxAtoms: 9, rateCap: 6000},
	{name: "cold-templates", cold: true, maxAtoms: 15, rateCap: 3500},
	{name: "app-onboarding", durable: true, onboarding: true, maxAtoms: 9, rateCap: 4000},
}

func specNamed(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// opKind distinguishes the two request types a client sends.
type opKind uint8

const (
	opSubmit  opKind = iota // POST /v1/submit of one query for one app
	opInstall               // PUT /v1/policy/{app}: install or replace a policy
)

// op is one pre-generated request of a client's stream.
type op struct {
	kind  opKind
	app   int32
	query string              // opSubmit: datalog text
	parts map[string][]string // opInstall: the Chinese-wall partitions
}

// app is one principal: a third-party app with its submission token and
// the client that owns it. Each app belongs to exactly one client, so its
// stream is sequential and its decisions are deterministic.
type app struct {
	name   string
	token  string
	client int
	// initial is the policy installed at set-up (nil for apps that arrive
	// during an onboarding run).
	initial map[string][]string
}

// stream is everything the clients send, generated from the seed before
// any deployment exists.
type stream struct {
	apps []app
	// initial is the number of apps installed at set-up: apps[:initial].
	initial int
	// ops holds each client's requests in send order; the first warmup of
	// them are untimed.
	ops    [][]op
	warmup int
}

// rngFor derives an independent deterministic RNG for one purpose of one
// seed (the splitmix step of workload.Options.ForClient).
func rngFor(seed int64, purpose int) *rand.Rand {
	return rand.New(rand.NewSource(workload.Options{Seed: seed}.ForClient(purpose).Seed))
}

// chineseWall draws a 3-partition Chinese-wall policy over the catalog:
// each partition holds every view independently with probability 2/3.
func chineseWall(rng *rand.Rand, views []string) map[string][]string {
	parts := make(map[string][]string, 3)
	for p := 0; p < 3; p++ {
		var vs []string
		for _, v := range views {
			if rng.Intn(3) != 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			vs = append(vs, views[rng.Intn(len(views))])
		}
		parts[fmt.Sprintf("W%d", p)] = vs
	}
	return parts
}

// templates generates the query templates of the stream. Every template
// is distinct up to isomorphism across the whole stream (deduplicated by
// canonical key), so no two apps share a label-cache entry and the
// cache-miss count of a run is a function of the seed and the op count.
type templates struct {
	s    *disclosure.Schema
	opts workload.Options
	seen map[string]bool
}

func newTemplates(seed int64, maxAtoms int) *templates {
	return &templates{
		s:    fb.Schema(),
		opts: workload.Options{Seed: seed, MaxSubqueries: maxAtoms / 3, FriendScopesMarkIsFriend: true},
		seen: make(map[string]bool),
	}
}

// generator returns the query generator of one app.
func (t *templates) generator(appIndex int) *workload.Generator {
	return workload.MustNew(t.s, t.opts.ForClient(appIndex))
}

// next draws g's next query that is new to the stream.
func (t *templates) next(g *workload.Generator) string {
	for {
		q := g.Next()
		key := cq.CanonicalKey(q)
		if !t.seen[key] {
			t.seen[key] = true
			return q.String()
		}
	}
}

// buildStream generates the stream of one run: each client's warm-up
// followed by perClient more ops (see streamPerClient).
func buildStream(cfg config, views []string, perClient int) *stream {
	sp := cfg.spec
	st := &stream{initial: cfg.apps, ops: make([][]op, cfg.clients)}
	total := cfg.apps
	if sp.onboarding {
		total = 2 * cfg.apps // the principal cap
	}
	wallRng := rngFor(cfg.seed, 1<<20)
	for i := 0; i < total; i++ {
		a := app{name: fmt.Sprintf("app-%d", i), token: fmt.Sprintf("tok-%d", i), client: i % cfg.clients}
		if i < cfg.apps {
			a.initial = chineseWall(wallRng, views)
		}
		st.apps = append(st.apps, a)
	}
	tm := newTemplates(cfg.seed, sp.maxAtoms)
	gens := make([]*workload.Generator, total)
	for i := range gens {
		gens[i] = tm.generator(i)
	}
	// Template pools (all workloads but cold): generated app by app so the
	// cross-app deduplication is deterministic.
	var pools [][]string
	if !sp.cold {
		pools = make([][]string, total)
		for i := range pools {
			for j := 0; j < cfg.pool; j++ {
				pools[i] = append(pools[i], tm.next(gens[i]))
			}
		}
	}
	// Warm-up: every app submits each of its templates once before timing
	// (one submission per app on the workloads without a warm pool). On
	// cold-templates the warm-up also fills the label cache past its
	// capacity, so the timed phase runs on a full cache that evicts at a
	// steady rate instead of on one that grows through the run.
	st.warmup = cfg.pool * cfg.apps / cfg.clients
	switch {
	case sp.cold:
		st.warmup = max(cfg.apps, label.DefaultCacheCapacity*5/4) / cfg.clients
	case sp.onboarding:
		st.warmup = cfg.apps / cfg.clients
	}
	n := st.warmup + perClient
	for c := 0; c < cfg.clients; c++ {
		var own []int32
		for i := c; i < cfg.apps; i += cfg.clients {
			own = append(own, int32(i))
		}
		rng := rngFor(cfg.seed, 1<<21+c)
		ops := make([]op, 0, n)
		// Each app first submits every template of its pool once, in a
		// shuffled order, then draws uniformly from the pool.
		perm := make(map[int32][]int)
		pick := func(a int32) string {
			p, ok := perm[a]
			if !ok {
				p = rng.Perm(cfg.pool)
			}
			if len(p) > 0 {
				perm[a] = p[1:]
				return pools[a][p[0]]
			}
			perm[a] = p
			return pools[a][rng.Intn(cfg.pool)]
		}
		arrived := 0
		for k := 0; len(ops) < n; k++ {
			if sp.onboarding && len(ops) >= st.warmup && rng.Intn(onboardEvery) == 0 {
				if next := cfg.apps + arrived*cfg.clients + c; next < total {
					arrived++
					own = append(own, int32(next))
					ops = append(ops, op{kind: opInstall, app: int32(next), parts: chineseWall(rng, views)})
				} else {
					a := own[rng.Intn(len(own))]
					ops = append(ops, op{kind: opInstall, app: a, parts: chineseWall(rng, views)})
				}
				continue
			}
			a := own[k%len(own)]
			if sp.cold {
				ops = append(ops, op{kind: opSubmit, app: a, query: tm.next(gens[a])})
			} else {
				ops = append(ops, op{kind: opSubmit, app: a, query: pick(a)})
			}
		}
		st.ops[c] = ops
	}
	return st
}

// onboardEvery is the mean number of operations per policy install in an
// onboarding client's timed stream.
const onboardEvery = 25

// viewNames lists the security-view names of the Facebook catalog.
func viewNames() ([]string, error) {
	views, err := fb.SecurityViews(fb.Schema())
	if err != nil {
		return nil, err
	}
	names := make([]string, len(views))
	for i, v := range views {
		names[i] = v.Name
	}
	sort.Strings(names)
	return names, nil
}
