package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime/metrics"
	"time"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/core"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/serve"
	"ageguard/internal/sta"
	"ageguard/pkg/ageguard/api"
)

// The Monte Carlo workload queries RISC-5P under the worst-case
// scenario on the 3x3 grid: a sample costs about 25 ms there against
// about 100 ms on 7x7, and SPICE does no work once the sensitivities
// are warm, so the sample loop is what the workload measures.
const (
	mcCircuit = "RISC-5P"
	mcSamples = 64 // per query
)

var mcScenario = api.Scenario{Kind: "worst"}

// mcState is one set-up of the Monte Carlo workload.
type mcState struct {
	dir            string
	flow           core.Flow
	nl             *netlist.Netlist
	snFresh, snAge *char.Sensitivity
	svc            *service
	nominal        *api.GuardbandResponse
}

// runMCSample runs a closed loop of one client sending
// /v1/mcguardband queries, each with a new seed so the LRU never
// replays a reply. Set-up characterizes the fresh library, builds the
// fresh and worst-case sensitivities, synthesizes the circuit and warms
// the server's netlist with one /v1/guardband query.
func runMCSample(ctx context.Context, e *env) error {
	samples := mcSamples
	if e.short {
		samples = 8
	}
	var st *mcState
	teardown, err := e.repeatSetup(3, func() (func(), error) {
		s, err := e.setupMC(ctx)
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

	rng := rand.New(rand.NewPCG(e.seed, 0x6d63))
	var (
		reqs    []api.MCGuardbandRequest
		replies []*api.MCGuardbandResponse
		log     requestLog
	)
	e.windowStart()
	start := time.Now()
	for q := 0; q == 0 || time.Since(start) < e.seconds; q++ {
		req := api.MCGuardbandRequest{
			Circuit:  mcCircuit,
			Scenario: mcScenario,
			Samples:  samples,
			Seed:     rng.Uint64(),
		}
		id := uint64(q + 1)
		t0 := time.Now()
		resp, err := st.svc.cl.MCGuardband(withRequestID(ctx, id), req)
		d := time.Since(t0)
		e.tr.add(0, "client.request", d)
		e.tr.window(0, d)
		if err != nil {
			e.failed++
			e.chk.fail("query %d: %v", q, err)
			continue
		}
		log.add(id, d)
		e.ops = append(e.ops, d.Seconds())
		reqs = append(reqs, req)
		replies = append(replies, resp)
	}
	e.windowEnd(time.Since(start))
	if len(reqs) == 0 {
		return nil
	}

	if e.tr.on {
		if err := e.probeMC(ctx, st, reqs[0], replies[0]); err != nil {
			return err
		}
		e.serverLayers(st.svc, &log)
		if err := e.metricsSize(st.svc); err != nil {
			return err
		}
	}
	if err := e.checkMC(ctx, st, samples, reqs[0], replies); err != nil {
		return err
	}
	if n := e.reg.Counter("spice.transients").Value() - e.start.counters["spice.transients"]; n != 0 {
		e.chk.fail("%d transient simulations ran after set-up", n)
	}
	return nil
}

// setupMC is one complete set-up in a new cache directory.
func (e *env) setupMC(ctx context.Context) (*mcState, error) {
	dir, err := os.MkdirTemp(e.dir, "mc-")
	if err != nil {
		return nil, err
	}
	st := &mcState{dir: dir, flow: core.Default()}
	st.flow.Char = char.TestConfig()
	st.flow.Char.CacheDir = dir
	sc := aging.WorstCase(st.flow.Lifetime)
	if err := e.tr.do(setupTrack, "char.library", func() error {
		_, err := st.flow.FreshLibrary(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	for _, p := range []struct {
		sn **char.Sensitivity
		sc aging.Scenario
	}{{&st.snFresh, aging.Fresh()}, {&st.snAge, sc}} {
		if err := e.tr.do(setupTrack, "char.sensitivities", func() (err error) {
			*p.sn, err = st.flow.Char.Sensitivities(ctx, p.sc)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := e.tr.do(setupTrack, "synth.netlist", func() (err error) {
		st.nl, err = st.flow.SynthesizeTraditional(ctx, mcCircuit)
		return err
	}); err != nil {
		return nil, err
	}
	st.svc, err = startService(serve.Config{Flow: st.flow}, e.reg, 1, e.tr.on)
	if err != nil {
		return nil, err
	}
	st.nominal, err = st.svc.cl.Guardband(ctx, api.GuardbandRequest{Circuit: mcCircuit, Scenario: mcScenario})
	if err != nil {
		st.svc.stop()
		return nil, fmt.Errorf("warm-up guardband query: %w", err)
	}
	return st, nil
}

// probeMC is the traced run's direct calls into the MC layers with the
// first query's request, made after the window on probeTrack: the engine
// itself, then the per-sample library materialization and batch timing
// on that query's own draws.
func (e *env) probeMC(ctx context.Context, st *mcState, req api.MCGuardbandRequest, reply *api.MCGuardbandResponse) error {
	sc := aging.WorstCase(st.flow.Lifetime)
	v := device.DefaultVariation()
	var res *core.MCResult
	if err := e.tr.do(probeTrack, "core.mc_engine", func() (err error) {
		res, err = st.flow.MCGuardbandNetlist(ctx, mcCircuit, st.nl, sc, core.MCConfig{
			Samples: req.Samples, Seed: req.Seed, Variation: v, Parallelism: st.flow.Parallelism,
		})
		return err
	}); err != nil {
		return fmt.Errorf("direct MC engine: %w", err)
	}
	if res.P50S != reply.P50S || res.P999S != reply.P999S || res.MeanS != reply.MeanS {
		e.chk.fail("direct MC engine and /v1/mcguardband disagree on seed %d", req.Seed)
	}

	// The instance-variant netlist and timer, built as the engine builds
	// them.
	vnl := st.nl.Clone()
	insts := make([]char.InstDraw, len(vnl.Insts))
	for i, in := range vnl.Insts {
		insts[i] = char.InstDraw{Inst: in.Name, Cell: in.Cell}
		in.Cell = char.VariantCell(in.Cell, in.Name)
	}
	template, err := st.snFresh.SampleLibrary("mc_template", insts)
	if err != nil {
		return err
	}
	bt, err := sta.NewBatchTimer(ctx, vnl, template, st.flow.STA)
	if err != nil {
		return err
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var allocBytes uint64
	draws := make([]char.InstDraw, len(insts))
	for i := 0; i < req.Samples; i++ {
		copy(draws, insts)
		for k := range draws {
			draws[k].Pb = v.Sample(req.Seed, uint64(i), draws[k].Inst)
		}
		var fresh, aged *liberty.Library
		metrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		if err := e.tr.do(probeTrack, "char.sample_library", func() (err error) {
			if fresh, err = st.snFresh.SampleLibrary(fmt.Sprintf("mc_fresh_%d", i), draws); err != nil {
				return err
			}
			aged, err = st.snAge.SampleLibrary(fmt.Sprintf("mc_aged_%d", i), draws)
			return err
		}); err != nil {
			return err
		}
		metrics.Read(allocs)
		allocBytes += allocs[0].Value.Uint64() - a0
		var sf, sa float64
		if err := e.tr.do(probeTrack, "sta.batch_cp", func() (err error) {
			if sf, err = bt.CP(ctx, fresh); err != nil {
				return err
			}
			sa, err = bt.CP(ctx, aged)
			return err
		}); err != nil {
			return err
		}
		if g := sa - sf; g != res.Guardbands[i] {
			e.chk.fail("sample %d of seed %d: guardband %g s retimed, %g s from the engine", i, req.Seed, g, res.Guardbands[i])
		}
	}
	e.layer["char.sample_library_ms"] = 1e3 * median(e.tr.durations("char.sample_library"))
	e.layer["char.sample_alloc_kb"] = float64(allocBytes) / float64(req.Samples) / 1024
	e.layer["sta.batch_cp_ms"] = 1e3 * median(e.tr.durations("sta.batch_cp"))
	e.layer["core.mc_engine_s"] = median(e.tr.durations("core.mc_engine"))

	return e.probeLayers(ctx,
		[]*liberty.Library{st.snFresh.Base, st.snAge.Base},
		[]timingPair{{st.nl, st.snFresh.Base}, {st.nl, st.snAge.Base}}, true)
}

// checkMC checks every reply of the window, then the replies against
// /v1/guardband, a second server over the same cache and a
// zero-variation engine run.
func (e *env) checkMC(ctx context.Context, st *mcState, samples int, first api.MCGuardbandRequest, replies []*api.MCGuardbandResponse) error {
	for q, r := range replies {
		what := fmt.Sprintf("query %d (seed %d)", q, r.Seed)
		if r.Samples != samples {
			e.chk.fail("%s: %d samples, asked for %d", what, r.Samples, samples)
		}
		for _, x := range []float64{r.MinS, r.P50S, r.P95S, r.P999S, r.MaxS, r.MeanS, r.StdS} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				e.chk.fail("%s: non-finite statistic", what)
			}
		}
		if !(r.MinS <= r.P50S && r.P50S <= r.P95S && r.P95S <= r.P999S && r.P999S <= r.MaxS) {
			e.chk.fail("%s: quantiles out of order: min %g p50 %g p95 %g p99.9 %g max %g",
				what, r.MinS, r.P50S, r.P95S, r.P999S, r.MaxS)
		}
		// Aging slows every sample, so a zero-filled sample shows as a
		// minimum of 0; the spread of real draws is never 0.
		if !(r.MinS > 0) || !(r.StdS > 0) {
			e.chk.fail("%s: min %g s, std %g s: a sample is missing or the draws had no effect", what, r.MinS, r.StdS)
		}
		sum := 0
		for _, c := range r.Hist.Counts {
			sum += c
		}
		if sum != r.Samples {
			e.chk.fail("%s: histogram counts sum to %d, want %d", what, sum, r.Samples)
		}
		if r.FreshCPs != st.nominal.FreshCPs || r.AgedCPs != st.nominal.AgedCPs {
			e.chk.fail("%s: nominal CPs %g/%g s, /v1/guardband says %g/%g s",
				what, r.FreshCPs, r.AgedCPs, st.nominal.FreshCPs, st.nominal.AgedCPs)
		}
	}

	second, err := startService(serve.Config{Flow: st.flow}, obs.NewRegistry(), 1, false)
	if err != nil {
		return err
	}
	again, err := second.cl.MCGuardband(ctx, first)
	if serr := second.stop(); err == nil {
		err = serr
	}
	if err != nil {
		e.chk.fail("repeat query on a second server: %v", err)
	} else {
		a, _ := json.Marshal(again)
		b, _ := json.Marshal(replies[0])
		if string(a) != string(b) {
			e.chk.fail("repeat query on a second server over the same cache differs:\n%s\n%s", a, b)
		}
	}

	zero, err := st.flow.MCGuardbandNetlist(ctx, mcCircuit, st.nl, aging.WorstCase(st.flow.Lifetime),
		core.MCConfig{Samples: 8, Seed: first.Seed})
	if err != nil {
		e.chk.fail("zero-variation engine run: %v", err)
		return nil
	}
	nominal := zero.AgedCPS - zero.FreshCPS
	if zero.FreshCPS != st.nominal.FreshCPs || zero.AgedCPS != st.nominal.AgedCPs {
		e.chk.fail("zero-variation engine nominal CPs %g/%g s, /v1/guardband says %g/%g s",
			zero.FreshCPS, zero.AgedCPS, st.nominal.FreshCPs, st.nominal.AgedCPs)
	}
	for i, g := range zero.Guardbands {
		if g != nominal {
			e.chk.fail("zero-variation sample %d: guardband %g s, nominal %g s", i, g, nominal)
		}
	}
	return nil
}
