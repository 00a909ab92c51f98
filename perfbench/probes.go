package main

import (
	"bytes"
	"context"
	"fmt"

	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/sta"
)

// timingPair is one netlist timed under one library.
type timingPair struct {
	nl  *netlist.Netlist
	lib *liberty.Library
}

// probeReps is how many times the traced run repeats its direct layer
// calls, so each per-layer median rests on several samples.
const probeReps = 3

// topPathsK is the path count of every paths query and probe.
const topPathsK = 8

// probeLayers is the traced run's direct calls into the liberty and sta
// layers on the workload's own libraries and netlists, made after the
// window on probeTrack: serialize and parse each library, and time each
// pair (sta.Analyze when analyze is set) and trace its top paths.
func (e *env) probeLayers(ctx context.Context, libs []*liberty.Library, pairs []timingPair, analyze bool) error {
	var cfg sta.Config
	for r := 0; r < probeReps; r++ {
		for _, lib := range libs {
			var buf bytes.Buffer
			if err := e.tr.do(probeTrack, "liberty.write", func() error { return liberty.Write(&buf, lib) }); err != nil {
				return fmt.Errorf("write %s: %w", lib.Name, err)
			}
			if err := e.tr.do(probeTrack, "liberty.read", func() error {
				_, err := liberty.Read(&buf)
				return err
			}); err != nil {
				return fmt.Errorf("read %s: %w", lib.Name, err)
			}
		}
		for _, p := range pairs {
			if analyze {
				if err := e.tr.do(probeTrack, "sta.analyze", func() error {
					_, err := sta.Analyze(ctx, p.nl, p.lib, cfg)
					return err
				}); err != nil {
					return fmt.Errorf("analyze %s under %s: %w", p.nl.Name, p.lib.Name, err)
				}
			}
			if err := e.tr.do(probeTrack, "sta.top_paths", func() error {
				_, err := sta.TopPaths(ctx, p.nl, p.lib, cfg, topPathsK)
				return err
			}); err != nil {
				return fmt.Errorf("top paths of %s under %s: %w", p.nl.Name, p.lib.Name, err)
			}
		}
	}
	return nil
}
