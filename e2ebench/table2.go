package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hydra/internal/baseline"
	"hydra/internal/experiments"
	"hydra/internal/model"
	"hydra/internal/sim"
)

// goldenTable2 is the checked-in Table II snapshot, relative to the
// repository root. The benchmark reads it and never writes it.
const goldenTable2 = "internal/experiments/testdata/table2.golden"

// table2Spec sizes the sim-table2 workload.
type table2Spec struct {
	name   string
	nets   func() []model.Network // networks of the traced per-cell split
	setups int                    // set-up repetitions; setup_s is their median
}

var table2Full = table2Spec{name: "sim-table2", nets: model.Benchmarks, setups: 1001}

// table2Env is the set-up state: the prototypes and networks the traced
// phase builds and simulates cell by cell.
type table2Env struct {
	spec   table2Spec
	protos []experiments.Prototype
	nets   []model.Network
}

func setupTable2(spec table2Spec) *table2Env {
	return &table2Env{spec: spec, protos: experiments.MeasuredPrototypes(), nets: spec.nets()}
}

// goldenTable is the oracle: the golden Table II, raw and split into cells.
type goldenTable struct {
	text  string
	cells map[string]map[string]string // row -> benchmark -> "measured | paper"
}

func loadGolden(root string) (*goldenTable, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenTable2))
	if err != nil {
		return nil, err
	}
	cells, err := parseTable2(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", goldenTable2, err)
	}
	return &goldenTable{text: string(data), cells: cells}, nil
}

// parseTable2 splits a formatted Table II into its cells: an 11-column row
// label, then one 25-column field per benchmark.
func parseTable2(s string) (map[string]map[string]string, error) {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("table has %d lines", len(lines))
	}
	cells := map[string]map[string]string{}
	for _, line := range lines[2:] {
		want := 11 + 25*len(baseline.Benchmarks)
		if len(line) != want {
			return nil, fmt.Errorf("row %q is %d columns, want %d", line, len(line), want)
		}
		row := strings.TrimSpace(line[:11])
		cells[row] = map[string]string{}
		for i, bm := range baseline.Benchmarks {
			cells[row][bm] = strings.TrimSpace(line[11+25*i : 11+25*(i+1)])
		}
	}
	return cells, nil
}

// check compares a formatted Table II with the golden one byte for byte.
// On a difference it returns how many measured cells (rows named in
// measured) differ, at least 1, since a changed layout fails too.
func (g *goldenTable) check(text string, measured []string) (failed int, err error) {
	if text == g.text {
		return 0, nil
	}
	cells, perr := parseTable2(text)
	for _, row := range measured {
		for _, bm := range baseline.Benchmarks {
			if perr != nil || cells[row][bm] != g.cells[row][bm] {
				failed++
			}
		}
	}
	return max(failed, 1), fmt.Errorf("Table II differs from %s in %d measured cells:\n%s", goldenTable2, failed, text)
}

// cellText formats a cell the way Table2Result.Format does.
func cellText(c experiments.Table2Cell) string {
	return strings.TrimSpace(fmt.Sprintf("%10.2f | %10.2f", c.Seconds, c.Paper))
}

// cellRecord is one Table II cell of a traced regeneration: Prototype.Build
// then sim.Run.
type cellRecord struct {
	id                          int
	proto, net                  string
	start, built, simStart, end time.Time
	cell                        experiments.Table2Cell
	tasks                       int
	buildAlloc                  uint64 // bytes allocated by Prototype.Build
	runAlloc, mallocs           uint64 // bytes and objects allocated by sim.Run
	err                         error
}

// regeneration is one pass over every measured cell of the table.
type regeneration struct {
	wall              time.Duration
	attempted, failed int
	errs              []error
	table             *experiments.Table2Result // untraced only
	cells             []*cellRecord             // traced only
}

// regenerate calls experiments.Table2 and checks its Format() against the
// golden file.
func (e *table2Env) regenerate(g *goldenTable) *regeneration {
	start := time.Now()
	res, err := experiments.Table2()
	reg := &regeneration{wall: time.Since(start), attempted: len(e.protos) * len(baseline.Benchmarks)}
	if err != nil {
		reg.failed, reg.errs = reg.attempted, []error{err}
		return reg
	}
	reg.table = res
	var names []string
	for _, p := range e.protos {
		names = append(names, p.Name)
	}
	if reg.failed, err = g.check(res.Format(), names); err != nil {
		reg.errs = []error{err}
	}
	return reg
}

// regenerateTraced runs Prototype.Build and sim.Run for every (prototype,
// network) cell in Table II's order, recording each call's time and
// allocation, and checks every cell against the golden one.
func (e *table2Env) regenerateTraced(g *goldenTable, nextID *int) *regeneration {
	reg := &regeneration{}
	var mem runtime.MemStats
	for _, p := range e.protos {
		for _, net := range e.nets {
			c := &cellRecord{id: *nextID, proto: p.Name, net: net.Name}
			*nextID++
			reg.cells = append(reg.cells, c)
			runtime.ReadMemStats(&mem)
			c.buildAlloc = mem.TotalAlloc
			c.start = time.Now()
			prog, err := p.Build(net)
			c.built = time.Now()
			if err != nil {
				c.err, c.end = fmt.Errorf("%s/%s: build: %w", p.Name, net.Name, err), c.built
				continue
			}
			runtime.ReadMemStats(&mem)
			c.buildAlloc = mem.TotalAlloc - c.buildAlloc
			runAlloc, mallocs := mem.TotalAlloc, mem.Mallocs
			c.simStart = time.Now()
			simRes, err := sim.Run(prog, p.Sim)
			c.end = time.Now()
			runtime.ReadMemStats(&mem)
			c.runAlloc, c.mallocs = mem.TotalAlloc-runAlloc, mem.Mallocs-mallocs
			for _, st := range prog.Steps {
				for card := range st.Compute {
					c.tasks += len(st.Compute[card]) + len(st.Comm[card])
				}
			}
			if err != nil {
				c.err = fmt.Errorf("%s/%s: sim: %w", p.Name, net.Name, err)
				continue
			}
			c.cell = experiments.Table2Cell{Seconds: simRes.Makespan * p.ReportScale, Paper: baseline.TableII[p.Name][net.Name]}
			if got, want := cellText(c.cell), g.cells[p.Name][net.Name]; got != want {
				c.err = fmt.Errorf("%s/%s: got %q, golden %q", p.Name, net.Name, got, want)
			}
		}
	}
	for _, c := range reg.cells {
		reg.wall += c.end.Sub(c.start)
		reg.attempted++
		if c.err != nil {
			reg.failed++
			reg.errs = append(reg.errs, c.err)
		}
	}
	return reg
}

// spans returns the cell's span tree. The MemStats read between the build
// and the run is the cell's own self time.
func (c *cellRecord) spans() []span {
	return []span{
		{"table2.cell", c.id, c.start, c.end},
		{"mapping.build", c.id, c.start, c.built},
		{"sim.run", c.id, c.simStart, c.end},
	}
}

// paperErrPct is the mean absolute percentage gap between the simulated
// and the published seconds over the measured rows' cells that have a paper
// value.
func paperErrPct(t *experiments.Table2Result, protos []experiments.Prototype) float64 {
	sum, n := 0.0, 0
	for _, p := range protos {
		for _, c := range t.Rows[p.Name] {
			if c.Paper > 0 {
				sum += math.Abs(c.Seconds-c.Paper) / c.Paper
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// block regenerates the table until the next regeneration would end past
// dur (always at least once).
func (e *table2Env) block(g *goldenTable, dur time.Duration, traced bool, nextID *int) []*regeneration {
	var regs []*regeneration
	start := time.Now()
	for {
		reg := e.regenerate(g)
		if traced {
			reg = e.regenerateTraced(g, nextID)
		}
		regs = append(regs, reg)
		if time.Since(start)+reg.wall > dur {
			return regs
		}
	}
}

// regenLatencies returns the wall time in ms of each regeneration that
// passed, and the summed wall time of all of them.
func regenLatencies(regs []*regeneration) (lat []float64, wall time.Duration) {
	for _, r := range regs {
		wall += r.wall
		if r.failed == 0 {
			lat = append(lat, ms(r.wall))
		}
	}
	return lat, wall
}

// runTable2 sets up, measures and (when tracing) splits the sim-table2
// workload.
func runTable2(spec table2Spec, rc runConfig) (*outcome, error) {
	var env *table2Env
	var setups []time.Duration
	runtime.GC() // start every run's set-up loop from the same heap state
	for i := 0; i < spec.setups; i++ {
		t := time.Now()
		e := setupTable2(spec)
		setups = append(setups, time.Since(t))
		if env == nil {
			env = e
		}
	}
	golden, err := loadGolden(rc.root)
	if err != nil {
		return nil, err
	}

	blocks, dur := measuredBlocks(rc)
	nextID := 0
	var measured, traced []*regeneration
	for _, tr := range blocks {
		regs := env.block(golden, dur, tr, &nextID)
		if tr {
			traced = append(traced, regs...)
		} else {
			measured = append(measured, regs...)
		}
	}

	out := &outcome{correct: true}
	printed := 0
	for _, r := range append(append([]*regeneration(nil), measured...), traced...) {
		out.attempted += r.attempted
		out.failed += r.failed
		for _, err := range r.errs {
			out.correct = false
			if printed++; printed <= 3 {
				fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			}
		}
	}

	lat, wall := regenLatencies(measured)
	verdict := "matches the golden file"
	if !out.correct {
		verdict = "DIFFERS from the golden file"
	}
	fmt.Printf("%s: %d calls of experiments.Table2 in %.2fs (latency samples: %d); Table II output %s\n",
		spec.name, len(measured), wall.Seconds(), len(lat), verdict)
	if len(lat) == 0 {
		return nil, fmt.Errorf("no regeneration passed")
	}
	out.endToEnd = map[string]metric{
		"latency_p50_ms":        {median(lat), "ms"},
		"latency_p90_ms":        {percentile(lat, 0.9), "ms"},
		"throughput_jobs_per_s": {float64(len(lat)) / wall.Seconds(), "1/s"},
		"setup_s":               {medianDur(setups, time.Second), "s"},
		"peak_rss_mb":           {peakRSSMB(), "MiB"},
	}
	if rc.trace {
		layers, err := env.layerMetrics(rc, measured, traced)
		if err != nil {
			return nil, err
		}
		out.perLayer = layers
	}
	return out, nil
}

// layerMetrics splits the traced regenerations into mapping and sim time
// and allocation, per regeneration (median), and reports the tracing
// overhead against the untraced experiments.Table2 calls.
func (e *table2Env) layerMetrics(rc runConfig, untraced, traced []*regeneration) (map[string]metric, error) {
	var spans []span
	var builds, runs, buildMB, runMB, tasks, mallocs []float64
	cells := 0
	for _, r := range traced {
		var b, s time.Duration
		var ba, ra, t, mc float64
		for _, c := range r.cells {
			if c.err != nil {
				continue
			}
			spans = append(spans, c.spans()...)
			cells++
			b += c.built.Sub(c.start)
			s += c.end.Sub(c.simStart)
			ba += float64(c.buildAlloc)
			ra += float64(c.runAlloc)
			t += float64(c.tasks)
			mc += float64(c.mallocs)
		}
		builds, runs = append(builds, b.Seconds()), append(runs, s.Seconds())
		buildMB, runMB = append(buildMB, ba/(1<<20)), append(runMB, ra/(1<<20))
		tasks, mallocs = append(tasks, t), append(mallocs, mc)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("traced phase completed no cell")
	}
	if err := checkNesting(spans); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	tracePath := filepath.Join(rc.out, fmt.Sprintf("trace-%s-seed%d.json", e.spec.name, rc.seed))
	if err := writeChromeTrace(tracePath, spans, currentProvenance(e.spec.name, rc)); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("wrote Chrome trace-event JSON to %s\n", tracePath)
	printSelfTimes(os.Stdout, spans, cells)

	latU, wallU := regenLatencies(untraced)
	latT, wallT := regenLatencies(traced)
	simS, taskN := median(runs), median(tasks)
	errPct := 0.0
	for _, r := range untraced {
		if r.failed == 0 {
			errPct = paperErrPct(r.table, e.protos)
			break
		}
	}
	return withAllLayerMetrics(map[string]metric{
		"mapping.build_s":               {median(builds), "s"},
		"mapping.alloc_mb":              {median(buildMB), "MiB"},
		"sim.run_s":                     {simS, "s"},
		"sim.tasks":                     {taskN, "count"},
		"sim.tasks_per_s":               {taskN / simS, "1/s"},
		"sim.alloc_mb":                  {median(runMB), "MiB"},
		"sim.mallocs_per_task":          {median(mallocs) / taskN, "count"},
		"experiments.table2_s":          {median(latU) / 1000, "s"},
		"experiments.paper_err_pct":     {errPct, "%"},
		"loadgen.jobs":                  {float64(cells), "count"},
		"trace.overhead_latency_pct":    {100 * (median(latT)/median(latU) - 1), "%"},
		"trace.overhead_throughput_pct": {100 * (float64(len(latU))/wallU.Seconds()/(float64(len(latT))/wallT.Seconds()) - 1), "%"},
	}), nil
}
