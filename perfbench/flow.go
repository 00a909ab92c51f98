package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"time"

	"ageguard/internal/cells"
	"ageguard/internal/char"
	"ageguard/internal/core"
	"ageguard/internal/gatesim"
	"ageguard/internal/liberty"
	"ageguard/internal/logic"
	"ageguard/internal/netlist"
)

// flowCircuit is the circuit of the cold flow: RISC-5P synthesizes in
// about 1.5 s, where DCT would take 40 s cold.
const flowCircuit = "RISC-5P"

// Library and netlist slots of one cold flow.
const (
	libFresh = iota
	libWorst
	libVthOnly
	numFlowLibs
)

const (
	nlTraditional = iota
	nlAgingAware
	numFlowNetlists
)

var flowLibNames = [numFlowLibs]string{"fresh", "worst", "vth-only"}

// flowWords x 64 reference vectors check each netlist: about 50 ms of
// logic-network evaluation on RISC-5P, which is most of a set-up.
const (
	flowWords  = 4096
	flowSetups = 9
)

// flowOut is everything one cold flow produced.
type flowOut struct {
	dir  string
	libs [numFlowLibs]*liberty.Library
	nls  [numFlowNetlists]*netlist.Netlist
	cp   [numFlowNetlists][numFlowLibs]float64
}

// runFlowCold runs the paper's Fig. 4 flow from an empty cache, one
// flow after another, until the window is over: characterize the
// fresh, worst-case and Vth-only libraries, synthesize traditionally
// (fresh library) and aging-aware (worst-case library), and time both
// netlists under all three libraries. Set-up builds the circuit's logic
// network and evaluates it on flowWords x 64 seeded reference vectors,
// which every synthesized netlist is checked against; it is cheap, so
// it is timed flowSetups times.
func runFlowCold(ctx context.Context, e *env) error {
	words := flowWords
	base := core.Default()
	if e.short {
		words = 2
		base.Char = char.TestConfig()
	}
	var (
		aig  *logic.AIG
		vecs [][]uint64
		want [][]uint64
	)
	teardown, err := e.repeatSetup(flowSetups, func() (func(), error) {
		a, err := core.Benchmark(flowCircuit)
		if err != nil {
			return nil, err
		}
		aig = a
		vecs, want = referenceVectors(a, e.seed, words)
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	var flows []*flowOut
	e.windowStart()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < e.seconds; n++ {
		f := base
		f.Char.CacheDir = filepath.Join(e.dir, fmt.Sprintf("flow-%d", n))
		t0 := time.Now()
		out, err := e.coldFlow(ctx, f)
		d := time.Since(t0)
		e.tr.window(0, d)
		if err != nil {
			e.failed++
			e.chk.fail("flow %d: %v", n, err)
			continue
		}
		e.ops = append(e.ops, d.Seconds())
		flows = append(flows, out)
	}
	e.windowEnd(time.Since(start))

	if e.tr.on && len(flows) > 0 {
		last := flows[len(flows)-1]
		var pairs []timingPair
		for _, nl := range last.nls {
			for _, lib := range last.libs {
				pairs = append(pairs, timingPair{nl, lib})
			}
		}
		if err := e.probeLayers(ctx, last.libs[:], pairs, false); err != nil {
			return err
		}
	}
	for i, o := range flows {
		e.checkFlow(i, o, aig, vecs, want)
	}
	return nil
}

// coldFlow runs one flow in f's (empty) cache directory, with a span
// around every call into a layer.
func (e *env) coldFlow(ctx context.Context, f core.Flow) (*flowOut, error) {
	o := &flowOut{dir: f.Char.CacheDir}
	libFns := [numFlowLibs]func(context.Context) (*liberty.Library, error){
		f.FreshLibrary, f.WorstLibrary, f.VthOnlyLibrary,
	}
	for i, fn := range libFns {
		err := e.tr.do(0, "char.library", func() (err error) {
			o.libs[i], err = fn(ctx)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s library: %w", flowLibNames[i], err)
		}
	}
	synthLibs := [numFlowNetlists]*liberty.Library{o.libs[libFresh], o.libs[libWorst]}
	for i, lib := range synthLibs {
		err := e.tr.do(0, "synth.netlist", func() (err error) {
			o.nls[i], err = f.Synthesized(ctx, flowCircuit, lib)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("synthesis with %s: %w", lib.Name, err)
		}
	}
	for i, nl := range o.nls {
		for j, lib := range o.libs {
			err := e.tr.do(0, "sta.analyze", func() (err error) {
				o.cp[i][j], err = f.CP(ctx, nl, lib)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("timing %s under %s: %w", nl.Name, lib.Name, err)
			}
		}
	}
	return o, nil
}

// referenceVectors draws words x 64 seeded input vectors for a and
// evaluates the logic network on them.
func referenceVectors(a *logic.AIG, seed uint64, words int) (in, out [][]uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x666c6f77))
	var scratch []uint64
	for w := 0; w < words; w++ {
		v := make([]uint64, a.NumInputs())
		for i := range v {
			v[i] = rng.Uint64()
		}
		var o []uint64
		o, scratch = a.Eval64(v, scratch)
		in = append(in, v)
		out = append(out, o)
	}
	return in, out
}

// checkFlow checks one flow's outputs against separate computations
// and required properties.
func (e *env) checkFlow(n int, o *flowOut, a *logic.AIG, vecs, want [][]uint64) {
	for i, nl := range o.nls {
		e.checkEquivalent(fmt.Sprintf("flow %d netlist %d", n, i), nl, a, vecs, want)
	}
	for i, lib := range o.libs {
		what := fmt.Sprintf("flow %d %s library", n, flowLibNames[i])
		e.checkCatalogue(what, lib)
		e.checkReload(what, o.dir, lib)
	}
	for i := range o.nls {
		cp := o.cp[i]
		if !(cp[libWorst] > cp[libFresh]) {
			e.chk.fail("flow %d netlist %d: aged CP %g s is not above fresh CP %g s", n, i, cp[libWorst], cp[libFresh])
		}
		full, vth := cp[libWorst]-cp[libFresh], cp[libVthOnly]-cp[libFresh]
		if !(vth < full) {
			e.chk.fail("flow %d netlist %d: Vth-only guardband %g s is not below the Vth+mobility guardband %g s", n, i, vth, full)
		}
	}
}

// checkEquivalent simulates the gate-level netlist on the reference
// vectors and compares every output with the logic network's.
func (e *env) checkEquivalent(what string, nl *netlist.Netlist, a *logic.AIG, vecs, want [][]uint64) {
	sim, err := gatesim.New(nl)
	if err != nil {
		e.chk.fail("%s: gate simulator: %v", what, err)
		return
	}
	in := make(map[string]uint64, a.NumInputs())
	for w, v := range vecs {
		for i, x := range v {
			in[a.InputName(i)] = x
		}
		got := sim.Eval(in)
		for i, o := range a.Outputs() {
			g, ok := got[o.Name]
			if !ok {
				e.chk.fail("%s: netlist lacks output %s", what, o.Name)
				return
			}
			if g != want[w][i] {
				e.chk.fail("%s: output %s differs from the logic network on word %d: %016x != %016x",
					what, o.Name, w, g, want[w][i])
				return
			}
		}
	}
}

// checkCatalogue checks that every catalogue cell is in lib with the
// arcs its function implies, and that every table value is finite.
func (e *env) checkCatalogue(what string, lib *liberty.Library) {
	for _, c := range cells.All() {
		ct, ok := lib.Cell(c.Name)
		if !ok {
			e.chk.fail("%s lacks cell %s", what, c.Name)
			continue
		}
		if c.Seq {
			if len(ct.Arcs) == 0 {
				e.chk.fail("%s: sequential cell %s has no arc", what, c.Name)
			}
		} else {
			wantArcs := char.DiscoverArcs(c)
			if len(wantArcs) != len(ct.Arcs) {
				e.chk.fail("%s: cell %s has %d arcs, its function implies %d", what, c.Name, len(ct.Arcs), len(wantArcs))
				continue
			}
			for i, w := range wantArcs {
				if a := ct.Arcs[i]; a.Pin != w.Pin || a.Sense != w.Sense {
					e.chk.fail("%s: cell %s arc %d is %s/%v, want %s/%v", what, c.Name, i, a.Pin, a.Sense, w.Pin, w.Sense)
				}
			}
		}
		for i, a := range ct.Arcs {
			if a.Delay[liberty.Rise] == nil && a.Delay[liberty.Fall] == nil {
				e.chk.fail("%s: cell %s arc %d has no delay table", what, c.Name, i)
			}
			for _, t := range []*liberty.Table{a.Delay[0], a.Delay[1], a.OutSlew[0], a.OutSlew[1]} {
				if t == nil {
					continue
				}
				for _, row := range t.Values {
					for _, v := range row {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							e.chk.fail("%s: cell %s arc %d has a non-finite table value", what, c.Name, i)
						}
					}
				}
			}
		}
	}
}

// checkReload loads lib's cache file from dir and compares it with the
// characterized library value for value.
func (e *env) checkReload(what, dir string, lib *liberty.Library) {
	paths, err := filepath.Glob(filepath.Join(dir, lib.Name+"_g*.alib"))
	if err != nil || len(paths) != 1 {
		e.chk.fail("%s: want one cache file, found %d (%v)", what, len(paths), err)
		return
	}
	got, err := char.VerifyCacheFile(paths[0])
	if err != nil {
		e.chk.fail("%s: reload: %v", what, err)
		return
	}
	if msg := libDiff(lib, got); msg != "" {
		e.chk.fail("%s: reloaded cache file differs: %s", what, msg)
	}
}

// libDiff reports the first difference between two libraries, or "".
func libDiff(a, b *liberty.Library) string {
	if a.Name != b.Name || a.Vdd != b.Vdd || a.Scenario != b.Scenario {
		return "header"
	}
	if !floatsEqual(a.Slews, b.Slews) || !floatsEqual(a.Loads, b.Loads) {
		return "grid axes"
	}
	if len(a.Cells) != len(b.Cells) {
		return fmt.Sprintf("%d cells vs %d", len(a.Cells), len(b.Cells))
	}
	for name, ca := range a.Cells {
		cb, ok := b.Cells[name]
		if !ok {
			return "missing cell " + name
		}
		if ca.AreaUm2 != cb.AreaUm2 || ca.Seq != cb.Seq || ca.SetupPS != cb.SetupPS || ca.HoldPS != cb.HoldPS {
			return "cell attributes of " + name
		}
		for pin, c := range ca.PinCap {
			if cb.PinCap[pin] != c {
				return "pin capacitance " + name + "/" + pin
			}
		}
		if len(ca.Arcs) != len(cb.Arcs) {
			return "arc count of " + name
		}
		for i := range ca.Arcs {
			x, y := ca.Arcs[i], cb.Arcs[i]
			if x.Pin != y.Pin || x.Sense != y.Sense || x.When != y.When {
				return fmt.Sprintf("arc %d of %s", i, name)
			}
			for k := 0; k < 2; k++ {
				if !tableEqual(x.Delay[k], y.Delay[k]) || !tableEqual(x.OutSlew[k], y.OutSlew[k]) {
					return fmt.Sprintf("table values of %s arc %d", name, i)
				}
			}
		}
	}
	return ""
}

func tableEqual(a, b *liberty.Table) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !floatsEqual(a.Slews, b.Slews) || !floatsEqual(a.Loads, b.Loads) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if !floatsEqual(a.Values[i], b.Values[i]) {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
