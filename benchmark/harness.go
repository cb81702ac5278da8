package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"oltpsim/internal/harness"
	"oltpsim/internal/systems"
)

// figIDs is the figure set the harness rung renders: the micro-benchmark
// footprint sweep across the simulated LLC (Figures 1-3) and the TPC-C mix
// on all five archetypes (Figures 10-12), at quick scale.
var figIDs = []string{"1", "2", "3", "10", "11", "12"}

func readGolden(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "testdata", "golden_quick.txt"))
	if err != nil {
		return "", fmt.Errorf("reading golden: %w", err)
	}
	return string(b), nil
}

// loadGolden returns the golden sections of figIDs, keyed by figure ID.
func loadGolden() (map[string]string, error) {
	text, err := readGolden(".")
	if err != nil {
		return nil, err
	}
	secs := goldenSections(text)
	for _, id := range figIDs {
		if _, ok := secs[id]; !ok {
			return nil, fmt.Errorf("golden has no figure %s", id)
		}
	}
	return secs, nil
}

// render builds the figure set on r and counts the figures whose text is
// not byte-identical to the golden section.
func render(r *harness.Runner, golden map[string]string, rep *report) error {
	figs, err := harness.BuildFigures(r, figIDs)
	if err != nil {
		return err
	}
	for i, f := range figs {
		rep.Attempted++
		if got := f.String() + "\n"; got != golden[figIDs[i]] {
			rep.Failed++
			rep.problem("figure %s differs from testdata/golden_quick.txt", figIDs[i])
		}
	}
	return nil
}

// figCells lists the cells Figures 1-3 and 10-12 declare, built with the
// harness's own cell constructors. rungHarness proves the list complete: a
// BuildFigures call after running it must execute no further cell.
func figCells(r *harness.Runner) []harness.CellSpec {
	var specs []harness.CellSpec
	for _, sys := range systems.All() {
		for _, size := range harness.SizeLabels() {
			specs = append(specs, r.MicroCell(sys, size, 1, false, false))
		}
	}
	for _, sys := range systems.All() {
		specs = append(specs, r.TPCCCell(sys, systems.Options{}, harness.Size100GB, 1))
	}
	return specs
}

// rungHarness renders the figure set with every cell timed: a pool of the
// runner's default width runs the declared cells through Runner.Run, one
// span per cell, and BuildFigures then renders from the runner's cache,
// checked against the golden.
func rungHarness(l *report, o opts, parent int) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	runtime.GC()
	workers := runtime.GOMAXPROCS(0)
	r := harness.NewRunner(harness.QuickScale())
	specs := figCells(r)
	cellSecs := make([]float64, len(specs))
	t0 := time.Now()
	next := make(chan int, len(specs))
	for i := range specs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sp := o.tr.begin("cell."+specs[i].Key, parent)
				c0 := time.Now()
				r.Run(specs[i])
				cellSecs[i] = time.Since(c0).Seconds()
				o.tr.end(sp)
			}
		}()
	}
	wg.Wait()
	cells := r.CellsExecuted()
	sp := o.tr.begin("render", parent)
	err = render(r, golden, l)
	o.tr.end(sp)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if extra := r.CellsExecuted() - cells; extra != 0 {
		l.problem("BuildFigures executed %d cells beyond the harness rung's list: figCells is stale", extra)
	}
	var sum, slowest float64
	for _, s := range cellSecs {
		sum += s
		slowest = max(slowest, s)
	}
	l.add("harness.cells", "count", float64(cells), 1)
	l.add("harness.cell_s_sum", "s", sum, len(cellSecs))
	l.add("harness.cell_s_max", "s", slowest, len(cellSecs))
	l.add("harness.pool_eff", "ratio", sum/(wall*float64(workers)), workers)
	return nil
}
