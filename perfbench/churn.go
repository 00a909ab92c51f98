package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"time"

	"ageguard/internal/aging"
	"ageguard/internal/cells"
	"ageguard/internal/char"
	"ageguard/internal/core"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/serve"
	"ageguard/internal/sta"
	"ageguard/internal/units"
	"ageguard/pkg/ageguard/api"
)

// The churn workload's working set: three small circuits (DCT, IDCT
// and FFT take tens of seconds to synthesize cold) under four aged
// duty scenarios, plus the fresh library, on the 3x3 grid. With
// churnLRU entries the server's LRU holds well under the working set
// (libraries, netlists, analyzers, path listings, batch fragments and
// batch bodies), so requests keep reloading .alib files and netlists
// from the disk cache and recompiling analyzers. No record of ageguardd
// traffic exists, so the mix weighs the four request kinds equally (see
// round).
var (
	churnCircuits = []string{"RISC-5P", "RISC-6P", "VLIW"}
	churnAged     = []api.Scenario{
		{Kind: "worst"},
		{Kind: "balance"},
		{Kind: "duty", LambdaP: 0.3, LambdaN: 0.7},
		{Kind: "duty", LambdaP: 0.7, LambdaN: 0.3},
	}
	freshScenario = api.Scenario{Kind: "fresh"}
)

const (
	churnLRU = 64 // server LRU entries; README.md says why
	// One item per single-query kind: a round's batches then carry the
	// working set exactly once and number as many as each single kind.
	churnBatchItems = 3
)

// cellPoint is one cell-timing query of the working set.
type cellPoint struct {
	cell     string
	scenario int // index into churnState.scens
	slew     float64
	load     float64
}

// churnState is one set-up of the churn workload plus the references
// the replies are checked against.
type churnState struct {
	dir      string
	flow     core.Flow
	svc      *service
	circuits []string
	scens    []api.Scenario // scens[0] is fresh
	libs     []*liberty.Library
	nls      map[string]*netlist.Netlist
	cp       map[string][]float64 // circuit -> CP per scenario (sta.Analyze)
	points   []cellPoint

	mu       sync.Mutex
	singles  map[string]string // query key -> re-encoded single reply
	batchEnc map[string]string // query key -> re-encoded first batch item
	batchIt  map[string]api.BatchItem
}

// agingScenario resolves a wire scenario the way the daemon documents
// it: a zero lifetime means the flow lifetime.
func agingScenario(a api.Scenario, years float64) aging.Scenario {
	switch a.Kind {
	case "fresh":
		return aging.Fresh()
	case "balance":
		return aging.BalanceCase(years)
	case "duty":
		return aging.WorstCase(years).WithLambda(a.LambdaP, a.LambdaN)
	default:
		return aging.WorstCase(years)
	}
}

// runServeChurn runs min(2, nproc) closed-loop clients, each sending
// seeded rounds of guardband, celltiming, paths and /v1/batch queries.
// Set-up characterizes every library of the working set, synthesizes
// every circuit into the disk cache and starts the server with an
// empty LRU.
func runServeChurn(ctx context.Context, e *env) error {
	circuits, aged := churnCircuits, churnAged
	lru := churnLRU
	if e.short {
		circuits, aged = circuits[:1], aged[:1]
		lru = 4
	}
	clients := min(2, runtime.NumCPU())
	var st *churnState
	teardown, err := e.repeatSetup(3, func() (func(), error) {
		s, err := e.setupChurn(ctx, circuits, append([]api.Scenario{freshScenario}, aged...), lru, clients)
		if err != nil {
			return nil, err
		}
		st = s
		return func() {
			s.svc.stop()
			os.RemoveAll(s.dir)
		}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	if err := st.references(ctx, e.seed, len(circuits)*len(aged)); err != nil {
		return err
	}

	type clientOut struct {
		ops    []float64
		failed int
		chk    checker
	}
	outs := make([]clientOut, clients)
	var log requestLog
	var ids struct {
		sync.Mutex
		next uint64
	}
	nextID := func() uint64 {
		ids.Lock()
		defer ids.Unlock()
		ids.next++
		return ids.next
	}
	u := st.universe()
	e.windowStart()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			rng := rand.New(rand.NewPCG(e.seed, uint64(c)+1))
			t := time.Now()
			// Whole rounds only: a run ends at the first round boundary
			// after the window.
			for time.Since(start) < e.seconds {
				for _, qs := range round(u, rng) {
					id := nextID()
					t0 := time.Now()
					err := st.request(withRequestID(ctx, id), qs, &o.chk)
					d := time.Since(t0)
					e.tr.add(c, "client.request", d)
					if err != nil {
						o.failed++
						o.chk.fail("request %d: %v", id, err)
						continue
					}
					log.add(id, d)
					o.ops = append(o.ops, d.Seconds())
				}
			}
			e.tr.window(c, time.Since(t))
		}(c)
	}
	wg.Wait()
	e.windowEnd(time.Since(start))
	for _, o := range outs {
		e.ops = append(e.ops, o.ops...)
		e.failed += o.failed
		e.chk.failures = append(e.chk.failures, o.chk.failures...)
	}

	if e.tr.on {
		var pairs []timingPair
		for _, c := range st.circuits {
			for _, lib := range st.libs {
				pairs = append(pairs, timingPair{st.nls[c], lib})
			}
		}
		if err := e.probeLayers(ctx, st.libs, pairs, true); err != nil {
			return err
		}
		e.serverLayers(st.svc, &log)
		if err := e.metricsSize(st.svc); err != nil {
			return err
		}
	}
	// Every batch item is compared with the single-query reply of the
	// same query; one never asked singly in the window is asked now,
	// untimed.
	for key, enc := range st.batchEnc {
		single, ok := st.singles[key]
		if !ok {
			if single, err = st.single(ctx, st.batchIt[key]); err != nil {
				e.chk.fail("single query for batch item %s: %v", key, err)
				continue
			}
		}
		if single != enc {
			e.chk.fail("batch item %s differs from its single-query reply", key)
		}
	}
	if n := e.reg.Counter("spice.transients").Value() - e.start.counters["spice.transients"]; n != 0 {
		e.chk.fail("%d transient simulations ran after set-up", n)
	}
	return nil
}

// setupChurn is one complete set-up in a new cache directory.
func (e *env) setupChurn(ctx context.Context, circuits []string, scens []api.Scenario, lru, clients int) (*churnState, error) {
	dir, err := os.MkdirTemp(e.dir, "churn-")
	if err != nil {
		return nil, err
	}
	st := &churnState{
		dir:      dir,
		flow:     core.Default(),
		circuits: circuits,
		scens:    scens,
		nls:      map[string]*netlist.Netlist{},
		singles:  map[string]string{},
		batchEnc: map[string]string{},
		batchIt:  map[string]api.BatchItem{},
	}
	st.flow.Char = char.TestConfig()
	st.flow.Char.CacheDir = dir
	for _, s := range scens {
		var lib *liberty.Library
		if err := e.tr.do(setupTrack, "char.library", func() (err error) {
			lib, err = st.flow.Library(ctx, agingScenario(s, st.flow.Lifetime))
			return err
		}); err != nil {
			return nil, err
		}
		st.libs = append(st.libs, lib)
	}
	for _, c := range circuits {
		if err := e.tr.do(setupTrack, "synth.netlist", func() error {
			nl, err := st.flow.SynthesizeTraditional(ctx, c)
			st.nls[c] = nl
			return err
		}); err != nil {
			return nil, err
		}
	}
	st.svc, err = startService(serve.Config{Flow: st.flow, CacheSize: lru}, e.reg, clients, e.tr.on)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// references computes the critical path of every circuit under every
// scenario with sta.Analyze and draws npoints cell-timing points.
func (st *churnState) references(ctx context.Context, seed uint64, npoints int) error {
	st.cp = map[string][]float64{}
	for _, c := range st.circuits {
		for _, lib := range st.libs {
			res, err := sta.Analyze(ctx, st.nls[c], lib, st.flow.STA)
			if err != nil {
				return err
			}
			st.cp[c] = append(st.cp[c], res.CP)
		}
	}
	// Points reach a little past both ends of the 5 ps..947 ps and
	// 0.5 fF..20 fF grid, where the tables clamp.
	rng := rand.New(rand.NewPCG(seed, 0x63656c6c))
	all := cells.All()
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	for i := 0; i < npoints; i++ {
		st.points = append(st.points, cellPoint{
			cell:     all[rng.IntN(len(all))].Name,
			scenario: rng.IntN(len(st.scens)),
			slew:     logUniform(3*units.Ps, 1200*units.Ps),
			load:     logUniform(0.3*units.FF, 25*units.FF),
		})
	}
	return nil
}

// query is one query of the working set, named for pairing batch items
// with single replies.
type query struct {
	key  string
	item api.BatchItem
}

// universe lists every query of the working set: the guardband and the
// top paths of every circuit under every aged scenario, and as many
// cell-timing points.
func (st *churnState) universe() []query {
	var u []query
	for c, circuit := range st.circuits {
		for s := 1; s < len(st.scens); s++ {
			u = append(u,
				query{fmt.Sprintf("guardband|%d|%d", c, s), api.GuardbandItem(api.GuardbandRequest{
					Circuit: circuit, Scenario: st.scens[s]})},
				query{fmt.Sprintf("paths|%d|%d", c, s), api.PathsItem(api.PathsRequest{
					Circuit: circuit, Scenario: st.scens[s], K: topPathsK})})
		}
	}
	for p, pt := range st.points {
		u = append(u, query{fmt.Sprintf("celltiming|%d", p), api.CellTimingItem(api.CellTimingRequest{
			Cell: pt.cell, Scenario: st.scens[pt.scenario], InSlewS: pt.slew, LoadF: pt.load})})
	}
	return u
}

// round returns one round of a client's requests in seeded order. No
// record of ageguardd traffic exists to weigh the request kinds by, so
// each of the four kinds the daemon serves gets the same share: every
// query of the working set once as a single request, and the working
// set once more, in seeded order, packed into batches of
// churnBatchItems. With the default sizes that is 12 guardband, 12
// paths, 12 cell-timing and 12 batch requests. Every round holds the
// same single requests; runs differ in their order, in the make-up of
// the batches and in the cell-timing points.
func round(u []query, rng *rand.Rand) [][]query {
	var reqs [][]query
	for _, q := range u {
		reqs = append(reqs, []query{q})
	}
	perm := rng.Perm(len(u))
	for b := 0; b < len(perm); b += churnBatchItems {
		var batch []query
		for _, i := range perm[b:min(b+churnBatchItems, len(perm))] {
			batch = append(batch, u[i])
		}
		reqs = append(reqs, batch)
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// request sends one request, a single query or a batch of several, and
// checks the reply.
func (st *churnState) request(ctx context.Context, qs []query, chk *checker) error {
	if len(qs) > 1 {
		items := make([]api.BatchItem, len(qs))
		for i, q := range qs {
			items[i] = q.item
		}
		resp, err := st.svc.cl.Batch(ctx, items)
		if err != nil {
			return err
		}
		if len(resp.Items) != len(items) {
			chk.fail("batch of %d items answered with %d", len(items), len(resp.Items))
			return nil
		}
		for i, r := range resp.Items {
			key := qs[i].key
			if r.Error != nil {
				chk.fail("batch item %s: %d %s", key, r.Error.Status, r.Error.Message)
				continue
			}
			enc, err := st.checkItem(key, items[i], r.Guardband, r.CellTiming, r.Paths, chk)
			if err != nil {
				return err
			}
			st.mu.Lock()
			if prev, ok := st.batchEnc[key]; !ok {
				st.batchEnc[key], st.batchIt[key] = enc, items[i]
			} else if prev != enc {
				chk.fail("batch item %s answered differently on repeat", key)
			}
			st.mu.Unlock()
		}
		return nil
	}
	key, it := qs[0].key, qs[0].item
	var (
		gb  *api.GuardbandResponse
		ct  *api.CellTimingResponse
		ps  *api.PathsResponse
		err error
	)
	switch it.Kind {
	case api.BatchGuardband:
		gb, err = st.svc.cl.Guardband(ctx, *it.Guardband)
	case api.BatchCellTiming:
		ct, err = st.svc.cl.CellTiming(ctx, *it.CellTiming)
	default:
		ps, err = st.svc.cl.Paths(ctx, *it.Paths)
	}
	if err != nil {
		return err
	}
	enc, err := st.checkItem(key, it, gb, ct, ps, chk)
	if err != nil {
		return err
	}
	st.recordSingle(key, enc, chk)
	return nil
}

// single asks one working-set query as a single request and returns its
// re-encoded reply.
func (st *churnState) single(ctx context.Context, it api.BatchItem) (string, error) {
	var v any
	var err error
	switch it.Kind {
	case api.BatchGuardband:
		v, err = st.svc.cl.Guardband(ctx, *it.Guardband)
	case api.BatchCellTiming:
		v, err = st.svc.cl.CellTiming(ctx, *it.CellTiming)
	default:
		v, err = st.svc.cl.Paths(ctx, *it.Paths)
	}
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(v)
	return string(b), err
}

// recordSingle keeps the first single reply of a query; a later one
// must be byte-identical.
func (st *churnState) recordSingle(key, enc string, chk *checker) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.singles[key]; !ok {
		st.singles[key] = enc
	} else if prev != enc {
		chk.fail("query %s answered differently on repeat", key)
	}
}

// checkItem checks one reply, single or batch item, against the
// references and returns its re-encoding.
func (st *churnState) checkItem(key string, it api.BatchItem, gb *api.GuardbandResponse, ct *api.CellTimingResponse, ps *api.PathsResponse, chk *checker) (string, error) {
	var v any
	switch it.Kind {
	case api.BatchGuardband:
		if gb == nil {
			chk.fail("%s: no guardband in reply", key)
			return "", nil
		}
		if gb.Circuit != it.Guardband.Circuit {
			chk.fail("%s: reply is for circuit %s", key, gb.Circuit)
		}
		cp := st.cp[it.Guardband.Circuit]
		fresh, aged := cp[0], cp[st.scenarioIndex(it.Guardband.Scenario)]
		if gb.FreshCPs != fresh || gb.AgedCPs != aged || gb.GuardbandS != aged-fresh {
			chk.fail("%s: fresh/aged/guardband %g/%g/%g s, sta.Analyze gives %g/%g/%g s",
				key, gb.FreshCPs, gb.AgedCPs, gb.GuardbandS, fresh, aged, aged-fresh)
		}
		v = gb
	case api.BatchCellTiming:
		if ct == nil {
			chk.fail("%s: no cell timing in reply", key)
			return "", nil
		}
		st.checkCellTiming(key, it.CellTiming, ct, chk)
		v = ct
	default:
		if ps == nil {
			chk.fail("%s: no paths in reply", key)
			return "", nil
		}
		if ps.Circuit != it.Paths.Circuit {
			chk.fail("%s: reply is for circuit %s", key, ps.Circuit)
		}
		cp := st.cp[it.Paths.Circuit][st.scenarioIndex(it.Paths.Scenario)]
		if len(ps.Paths) == 0 || len(ps.Paths) > topPathsK {
			chk.fail("%s: %d paths, want 1..%d", key, len(ps.Paths), topPathsK)
		} else if ps.Paths[0].DelayS != cp {
			chk.fail("%s: first path delay %g s, critical path %g s", key, ps.Paths[0].DelayS, cp)
		}
		for i := 1; i < len(ps.Paths); i++ {
			if ps.Paths[i].DelayS > ps.Paths[i-1].DelayS {
				chk.fail("%s: path %d is slower than path %d", key, i, i-1)
			}
		}
		v = ps
	}
	b, err := json.Marshal(v)
	return string(b), err
}

func (st *churnState) scenarioIndex(s api.Scenario) int {
	for i, x := range st.scens {
		if x == s {
			return i
		}
	}
	return 0
}

// checkCellTiming compares every arc of a cell-timing reply with the
// benchmark's own bilinear interpolation of the library tables.
func (st *churnState) checkCellTiming(key string, req *api.CellTimingRequest, r *api.CellTimingResponse, chk *checker) {
	lib := st.libs[st.scenarioIndex(req.Scenario)]
	if r.Library != lib.Name {
		chk.fail("%s: served from library %s, want %s", key, r.Library, lib.Name)
	}
	if r.Cell != req.Cell {
		chk.fail("%s: reply is for cell %s", key, r.Cell)
	}
	cell := lib.Cells[req.Cell]
	var want []api.ArcTiming
	for _, a := range cell.Arcs {
		for _, edge := range []liberty.Edge{liberty.Rise, liberty.Fall} {
			if a.Delay[edge] == nil {
				continue
			}
			at := api.ArcTiming{Pin: a.Pin, Edge: edge.String(), DelayS: bilinear(a.Delay[edge], req.InSlewS, req.LoadF)}
			if t := a.OutSlew[edge]; t != nil {
				s := bilinear(t, req.InSlewS, req.LoadF)
				at.OutSlewS = &s
			}
			want = append(want, at)
		}
	}
	if len(want) != len(r.Arcs) {
		chk.fail("%s: %d arc timings, library has %d", key, len(r.Arcs), len(want))
		return
	}
	for i, w := range want {
		g := r.Arcs[i]
		if g.Pin != w.Pin || g.Edge != w.Edge || !near(g.DelayS, w.DelayS) ||
			(g.OutSlewS == nil) != (w.OutSlewS == nil) || (g.OutSlewS != nil && !near(*g.OutSlewS, *w.OutSlewS)) {
			chk.fail("%s: arc %d is %+v, interpolation gives %+v", key, i, g, w)
		}
	}
}

// near reports agreement to 1e-12 relative: the reply and the
// benchmark interpolate the same values in different orders.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// bilinear interpolates an NLDM table at (slew, load), clamping to the
// characterized region.
func bilinear(t *liberty.Table, slew, load float64) float64 {
	i0, i1, fs := bracket(t.Slews, slew)
	j0, j1, fl := bracket(t.Loads, load)
	lo := t.Values[i0][j0] + fl*(t.Values[i0][j1]-t.Values[i0][j0])
	hi := t.Values[i1][j0] + fl*(t.Values[i1][j1]-t.Values[i1][j0])
	return lo + fs*(hi-lo)
}

// bracket returns the axis points around x and x's fraction between
// them; outside the axis both are the nearest end.
func bracket(axis []float64, x float64) (int, int, float64) {
	n := len(axis)
	if x <= axis[0] {
		return 0, 0, 0
	}
	if x >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	k := 1
	for axis[k] < x {
		k++
	}
	return k - 1, k, (x - axis[k-1]) / (axis[k] - axis[k-1])
}
