package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the calls the benchmark makes into the
// program's layers. Spans live on tracks: each measured worker (a flow
// loop, a client goroutine) has its own track; set-up work records on
// setupTrack and the direct layer calls after the window on probeTrack,
// both of which coverage ignores. A disabled tracer records nothing and
// costs one branch per call.
type tracer struct {
	on bool

	mu      sync.Mutex
	spans   []span
	windows map[int]time.Duration // measured wall per track
}

type span struct {
	name  string
	track int
	dur   time.Duration
}

// Spans on tracks below 0 feed layer medians but are outside the
// measured wall: setupTrack holds set-up work, probeTrack the direct
// layer calls made after the window.
const (
	setupTrack = -1
	probeTrack = -2
)

func newTracer(on bool) *tracer {
	return &tracer{on: on, windows: map[int]time.Duration{}}
}

// do runs f inside a span named name on track.
func (t *tracer) do(track int, name string, f func() error) error {
	if !t.on {
		return f()
	}
	t0 := time.Now()
	err := f()
	t.add(track, name, time.Since(t0))
	return err
}

// add records a span measured by the caller.
func (t *tracer) add(track int, name string, d time.Duration) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, track, d})
	t.mu.Unlock()
}

// window adds measured wall time to a track.
func (t *tracer) window(track int, d time.Duration) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.windows[track] += d
	t.mu.Unlock()
}

// durations returns the seconds of every span named name, set-up
// spans included.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur.Seconds())
		}
	}
	return out
}

// unattributed is the share of the measured wall, summed over tracks,
// that no span covers. Spans on one track never overlap: each track is
// one sequential worker and spans are only taken at its top level.
func (t *tracer) unattributed() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var wall, covered time.Duration
	for _, w := range t.windows {
		wall += w
	}
	for _, s := range t.spans {
		if s.track >= 0 {
			covered += s.dur
		}
	}
	if wall <= 0 {
		return 1
	}
	return math.Max(0, float64(wall-covered)/float64(wall))
}

// report prints every layer's span count, total and share of the
// measured wall to w.
func (t *tracer) report(w io.Writer) {
	t.mu.Lock()
	type agg struct {
		n          int
		total, msr time.Duration
	}
	by := map[string]*agg{}
	var wall time.Duration
	for _, d := range t.windows {
		wall += d
	}
	for _, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.dur
		if s.track >= 0 {
			a.msr += s.dur
		}
	}
	t.mu.Unlock()
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %7s %11s %11s %8s\n", "span", "count", "total_s", "measured_s", "share")
	for _, n := range names {
		a := by[n]
		share := 0.0
		if wall > 0 {
			share = 100 * float64(a.msr) / float64(wall)
		}
		fmt.Fprintf(w, "%-22s %7d %11.4f %11.4f %7.2f%%\n", n, a.n, a.total.Seconds(), a.msr.Seconds(), share)
	}
	fmt.Fprintf(w, "%-22s %7s %11s %11.4f %7.2f%%\n", "unattributed", "", "", t.unattributed()*wall.Seconds(), 100*t.unattributed())
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), 0 for none.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between order statistics: the
// q-quantile sits at rank q*(n-1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method);
// it needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
