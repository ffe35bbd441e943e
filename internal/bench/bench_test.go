package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// shapeTests names, for every experiment in All(), the test holding its
// own assertions; nil marks an experiment whose only checks are the
// generic ones in TestAllExperimentsRun. An experiment missing here fails
// that test, so a new experiment cannot land without an entry.
var shapeTests = map[string]func(*testing.T){
	"F1": TestFigureTables, "F2": nil, "F3": nil, "F4": TestFigureTables, "F5": nil,
	"E1": TestE1ShapeCacheWins, "E2": TestE2ShapeGapGrowsWithN, "E3": TestE3ShapeWindowBeatsRecompute,
	"E4": TestE4ShapeCrossover, "E5": TestE5ShapeColumnCompressionWins, "E6": TestE6ShapeAmortization,
	"E7": TestE7ShapePolicies, "E8": TestE8ShapeSamplingError, "E9": TestE9ShapeLocalVsGlobal,
	"E10": TestE10ShapeBounds, "E11": TestE11ShapeMachineScales, "E12": TestE12ShapeBackingAsymmetry,
	"E13": TestE13ShapeParallelSpeedup, "E14": nil, "E15": TestE15ShapeOverheadSmall,
	"E16": TestE16ShapeRunStrategy, "E17": TestE17ShapeShardedScatterGather,
	"E18": TestE18ShapeProfilerOverhead, "E19": TestE19ShapeLoadSaturation,
	"A1": TestA1ShapeClusteredScan, "A2": TestA2ShapeWiderWindowsRebuildLess, "A3": TestA3ShapeAdaptiveNearBest,
	"A4": TestA4ShapeUndoTradeoff, "A5": TestA5ShapePoolCoverage,
}

// ran memoizes experiment results for the test binary.
var ran = map[string]result{}

type result struct {
	tab *Table
	err error
}

// experiment returns experiment id's table, running the experiment on the
// first call only: every experiment runs once per test binary however
// many tests read its table. Tests run sequentially, so the memo needs
// no lock.
func experiment(t *testing.T, id string) *Table {
	t.Helper()
	res, ok := ran[id]
	if !ok {
		res.err = fmt.Errorf("no experiment %q in All()", id)
		for _, ex := range All() {
			if ex.ID == id {
				t.Logf("running %s", id)
				res.tab, res.err = ex.Run()
			}
		}
		ran[id] = res
	}
	if res.err != nil {
		t.Fatalf("%s: %v", id, res.err)
	}
	return res.tab
}

// TestAllExperimentsRun runs every experiment once and checks the shape
// every table shares: its ID, a cell per header, and a rendering that
// carries its title. Each experiment's own claims are asserted by the
// test shapeTests names for it, over the same (memoized) table.
func TestAllExperimentsRun(t *testing.T) {
	ids := map[string]bool{}
	for _, ex := range All() {
		ex := ex
		ids[ex.ID] = true
		t.Run(ex.ID, func(t *testing.T) {
			if _, ok := shapeTests[ex.ID]; !ok {
				t.Errorf("%s has no entry in shapeTests", ex.ID)
			}
			tab := experiment(t, ex.ID)
			if tab.ID != ex.ID {
				t.Errorf("table id %q != %q", tab.ID, ex.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row %d has %d cells for %d headers", i, len(row), len(tab.Header))
				}
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tab.Title) {
				t.Error("render missing title")
			}
		})
	}
	for id := range shapeTests {
		if !ids[id] {
			t.Errorf("shapeTests entry %s names no experiment in All()", id)
		}
	}
}

// cell parses tab.Rows[r][c] as a float, stripping a trailing "x".
func cell(t *testing.T, tab *Table, r, c int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[r][c], "x")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", r, c, tab.Rows[r][c], err)
	}
	return v
}

func TestE1ShapeCacheWins(t *testing.T) {
	tab := experiment(t, "E1")
	// In every row the cached pass count is below the uncached count, and
	// savings grow with bias.
	prevSaving := 0.0
	for r := range tab.Rows {
		noCache := cell(t, tab, r, 3)
		cached := cell(t, tab, r, 4)
		if cached >= noCache {
			t.Errorf("row %d: cache did not save (%g vs %g)", r, cached, noCache)
		}
		saving := noCache / cached
		if saving < prevSaving {
			t.Errorf("row %d: saving %g fell below previous %g", r, saving, prevSaving)
		}
		prevSaving = saving
	}
}

func TestE2ShapeGapGrowsWithN(t *testing.T) {
	tab := experiment(t, "E2")
	prev := 0.0
	for r := range tab.Rows {
		full := cell(t, tab, r, 2)
		incr := cell(t, tab, r, 3)
		if incr >= full {
			t.Errorf("row %d: incremental not cheaper", r)
		}
		red := full / incr
		if red < prev {
			t.Errorf("row %d: reduction %g shrank from %g", r, red, prev)
		}
		prev = red
	}
}

func TestE3ShapeWindowBeatsRecompute(t *testing.T) {
	tab := experiment(t, "E3")
	prevRebuilds := int64(1 << 60)
	for r := range tab.Rows {
		full := cell(t, tab, r, 2)
		win := cell(t, tab, r, 3)
		if win*10 > full {
			t.Errorf("row %d: window only %gx better", r, full/win)
		}
		rb := int64(cell(t, tab, r, 4))
		if rb > prevRebuilds {
			t.Errorf("row %d: wider window rebuilt more (%d > %d)", r, rb, prevRebuilds)
		}
		prevRebuilds = rb
	}
}

func TestE4ShapeCrossover(t *testing.T) {
	tab := experiment(t, "E4")
	// First row: 1 of 7 columns — transposed must win.
	if tab.Rows[0][3] != "transposed" {
		t.Errorf("1-column scan winner = %s", tab.Rows[0][3])
	}
	// Last row: informational query — row file must win.
	last := len(tab.Rows) - 1
	if tab.Rows[last][3] != "row file" {
		t.Errorf("informational winner = %s", tab.Rows[last][3])
	}
}

func TestE5ShapeColumnCompressionWins(t *testing.T) {
	tab := experiment(t, "E5")
	runsCol := cell(t, tab, 0, 1)
	runsRow := cell(t, tab, 0, 2)
	if runsCol >= runsRow {
		t.Errorf("column runs %g >= row runs %g", runsCol, runsRow)
	}
	sizeCol := cell(t, tab, 1, 1)
	sizeRow := cell(t, tab, 1, 2)
	if sizeCol >= sizeRow {
		t.Errorf("column bytes %g >= row bytes %g", sizeCol, sizeRow)
	}
}

func TestE6ShapeAmortization(t *testing.T) {
	tab := experiment(t, "E6")
	// Advantage must grow with uses and exceed 1 by the last row.
	prev := 0.0
	for r := range tab.Rows {
		derive := cell(t, tab, r, 1)
		concrete := cell(t, tab, r, 2)
		adv := derive / concrete
		if adv < prev {
			t.Errorf("row %d: advantage %g fell from %g", r, adv, prev)
		}
		prev = adv
	}
	if prev <= 1.5 {
		t.Errorf("final advantage only %g", prev)
	}
}

func TestE7ShapePolicies(t *testing.T) {
	tab := experiment(t, "E7")
	for r := range tab.Rows {
		perFn := cell(t, tab, r, 1)
		recompute := cell(t, tab, r, 3)
		if recompute < perFn {
			t.Errorf("mix %s: recompute-all (%g) beat per-function (%g)", tab.Rows[r][0], recompute, perFn)
		}
	}
}

func TestE8ShapeSamplingError(t *testing.T) {
	tab := experiment(t, "E8")
	// Full scan has zero error; smallest fraction has the largest
	// expected error.
	last := len(tab.Rows) - 1
	if got := cell(t, tab, last, 2); got != 0 {
		t.Errorf("full-scan error = %g", got)
	}
	first := cell(t, tab, 0, 4)
	lastExp := cell(t, tab, last, 4)
	if first <= lastExp {
		t.Errorf("expected error did not shrink: %g -> %g", first, lastExp)
	}
}

func TestE9ShapeLocalVsGlobal(t *testing.T) {
	tab := experiment(t, "E9")
	for r := range tab.Rows {
		local := cell(t, tab, r, 2)
		global := cell(t, tab, r, 3)
		if local >= global {
			t.Errorf("row %d: local (%g) not cheaper than global (%g)", r, local, global)
		}
	}
}

func TestE10ShapeBounds(t *testing.T) {
	tab := experiment(t, "E10")
	for r := range tab.Rows {
		if tab.Rows[r][4] != "yes" {
			t.Errorf("%s estimate outside its stated bound", tab.Rows[r][0])
		}
	}
}

func TestE11ShapeMachineScales(t *testing.T) {
	tab := experiment(t, "E11")
	// Within each use case (rows come in groups of 3 by processors),
	// machine ticks must fall as processors rise, and speedup >= 1.
	for g := 0; g < len(tab.Rows); g += 3 {
		prev := int64(1 << 62)
		for r := g; r < g+3; r++ {
			machine := int64(cell(t, tab, r, 3))
			host := int64(cell(t, tab, r, 2))
			if machine > prev {
				t.Errorf("row %d: machine ticks rose with processors", r)
			}
			procs := int64(cell(t, tab, r, 1))
			// A 1-processor machine may trail the host by its merge
			// overhead (one partial per processor); never by more.
			if machine > host+procs {
				t.Errorf("row %d: machine (%d) slower than host (%d) beyond merge overhead", r, machine, host)
			}
			prev = machine
		}
	}
}

func TestE12ShapeBackingAsymmetry(t *testing.T) {
	tab := experiment(t, "E12")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][3] != "transposed" {
		t.Errorf("first-touch winner = %s", tab.Rows[0][3])
	}
	// Cache-hit phase costs nothing on either backing.
	if cell(t, tab, 1, 1) != 0 || cell(t, tab, 1, 2) != 0 {
		t.Errorf("cache-hit phase cost I/O: %v", tab.Rows[1])
	}
	if tab.Rows[2][3] != "row file" {
		t.Errorf("informational winner = %s", tab.Rows[2][3])
	}
}

func TestE13ShapeParallelSpeedup(t *testing.T) {
	tab := experiment(t, "E13")
	sawBig := false
	for r := range tab.Rows {
		if tab.Rows[r][5] != "yes" {
			t.Errorf("row %d: parallel answer diverged from serial", r)
		}
		n := int(cell(t, tab, r, 0))
		speedup := cell(t, tab, r, 4)
		// Below one chunk the engine cannot win: spawn+merge overhead only.
		if n == 512 && speedup >= 1 {
			t.Errorf("row %d: 512-row column sped up %gx; should stay serial", r, speedup)
		}
		if n == 102400 && int(cell(t, tab, r, 1)) == 4 {
			sawBig = true
			if speedup < 2 {
				t.Errorf("row %d: 4-worker speedup on 102400 rows only %gx, want >= 2x", r, speedup)
			}
		}
	}
	if !sawBig {
		t.Error("no 102400-row / 4-worker grid point")
	}
}

func TestE15ShapeOverheadSmall(t *testing.T) {
	tab := experiment(t, "E15")
	if len(tab.Rows) < 2 {
		t.Fatalf("want at least two column sizes, got %d", len(tab.Rows))
	}
	// Every size: the events per pool run are exactly the engine's own
	// schedule, one per chunk + one for the run + one per worker spawned.
	for r := range tab.Rows {
		if perRun, schedule := cell(t, tab, r, 5), cell(t, tab, r, 6); perRun != schedule {
			t.Errorf("row %d: %g counter events per run, engine schedule says %g", r, perRun, schedule)
		}
		if chunks, workers, schedule := cell(t, tab, r, 1), cell(t, tab, r, 2), cell(t, tab, r, 6); schedule != chunks+1+workers {
			t.Errorf("row %d: schedule %g != %g chunks + 1 run + %g workers", r, schedule, chunks, workers)
		}
	}
	// 25 chunks + 1 run + 4 workers spawned on the 102400-row column.
	last := len(tab.Rows) - 1
	if tab.Rows[last][0] != "102400" || tab.Rows[last][5] != "30" {
		t.Errorf("102400-row fold recorded %s counter events per run, want 30: %v", tab.Rows[last][5], tab.Rows[last])
	}
	// Events track chunks, not rows: they grow more slowly than the column.
	rowsX := cell(t, tab, last, 0) / cell(t, tab, 0, 0)
	if eventsX := cell(t, tab, last, 4) / cell(t, tab, 0, 4); eventsX >= rowsX {
		t.Errorf("counter events grew %gx for %gx rows: per-row instrumentation", eventsX, rowsX)
	}
	if strings.Contains(tab.Finding, "CLAIM FAILED") {
		t.Errorf("finding reports failure: %s", tab.Finding)
	}
}

func TestE16ShapeRunStrategy(t *testing.T) {
	tab := experiment(t, "E16")
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 columns measured, got %d", len(tab.Rows))
	}
	for r := range tab.Rows {
		if tab.Rows[r][6] != "yes" {
			t.Errorf("row %d (%s): run answers diverged from row answers", r, tab.Rows[r][0])
		}
		// The tick speedup is rows/runs exactly.
		rows, runs := cell(t, tab, r, 1), cell(t, tab, r, 2)
		if tick := cell(t, tab, r, 5); tick != rows/runs {
			t.Errorf("row %d: tick speedup %gx, want exactly rows/runs = %gx", r, tick, rows/runs)
		}
		if tick := cell(t, tab, r, 5); tick < 10 {
			t.Errorf("row %d: tick speedup %gx, claim needs >= 10x", r, tick)
		}
	}
	if strings.Contains(tab.Finding, "CLAIM FAILED") {
		t.Errorf("finding reports failure: %s", tab.Finding)
	}
}

func TestE17ShapeShardedScatterGather(t *testing.T) {
	tab := experiment(t, "E17")
	if len(tab.Rows) != 7 {
		t.Fatalf("want 7 rows (4 healthy + pre-fault + 2 degraded), got %d", len(tab.Rows))
	}
	// Healthy rows: monotone speedup, every answer bit-identical, and
	// the 4-shard claim. All deterministic (virtual ticks).
	prev := 0.0
	for r := 0; r < 4; r++ {
		if tab.Rows[r][7] != "yes" {
			t.Errorf("row %d: healthy answer not bit-identical", r)
		}
		sx := cell(t, tab, r, 6)
		if sx < prev {
			t.Errorf("row %d: speedup %gx regressed below %gx", r, sx, prev)
		}
		prev = sx
	}
	if sx := cell(t, tab, 2, 6); sx < 2 {
		t.Errorf("4-shard speedup %gx, claim needs >= 2x", sx)
	}
	// Degraded rows: 3/4 answered, one stale partial, nothing missing.
	for _, r := range []int{5, 6} {
		if tab.Rows[r][2] != "3" || tab.Rows[r][3] != "1" || tab.Rows[r][4] != "0" {
			t.Errorf("row %d: degraded provenance = answered %s stale %s missing %s, want 3/1/0",
				r, tab.Rows[r][2], tab.Rows[r][3], tab.Rows[r][4])
		}
	}
	if strings.Contains(tab.Finding, "CLAIM FAILED") {
		t.Errorf("finding reports failure: %s", tab.Finding)
	}
}

func TestE18ShapeProfilerOverhead(t *testing.T) {
	tab := experiment(t, "E18")
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows (rows, spans, sites, conservation), got %d", len(tab.Rows))
	}
	// Per span, never per row: the fold walks a tree orders of magnitude
	// smaller than the column, and yields at most one site per span.
	rows, spans, sites := cell(t, tab, 0, 1), cell(t, tab, 1, 1), cell(t, tab, 2, 1)
	if rows != 102400 {
		t.Errorf("cold query scanned %g rows, want 102400", rows)
	}
	if spans*100 > rows {
		t.Errorf("%g spans for %g rows: the tree grew with the column", spans, rows)
	}
	if sites < 1 || sites > spans {
		t.Errorf("%g sites from %g spans", sites, spans)
	}
	// Tick conservation must hold exactly — the profiler is only
	// trustworthy if stitching loses no charges.
	if tab.Rows[3][2] != "yes" || cell(t, tab, 3, 1) <= 0 {
		t.Errorf("folded profile ticks diverged from the root span total: %v", tab.Rows[3])
	}
	if strings.Contains(tab.Finding, "CLAIM FAILED") {
		t.Errorf("finding reports failure: %s", tab.Finding)
	}
}

// TestE19ShapeLoadSaturation asserts E19's exact half over its full
// ladder: bit-identical answers under concurrency, no closed-loop shed,
// and a shedding overdrive. `make check` runs it under -race, so the
// digest comparison doubles as a data race hunt across up to 256
// concurrent sessions. Throughput, latency and the knee are wall clock
// and not asserted.
func TestE19ShapeLoadSaturation(t *testing.T) {
	tab := experiment(t, "E19")
	over := len(e19Ladder)
	if len(tab.Rows) != over+1 {
		t.Fatalf("want %d rows (ladder + overdrive), got %d", over+1, len(tab.Rows))
	}
	for r := 0; r < over; r++ {
		if got := tab.Rows[r][7]; got != "yes" {
			t.Errorf("row %d: concurrent answers diverged from serial replay: %q", r, got)
		}
		if got := tab.Rows[r][3]; got != "0" {
			t.Errorf("row %d: closed loop shed %s statements under a 4096-deep queue", r, got)
		}
	}
	if tab.Rows[over][1] != "open" {
		t.Fatalf("last row is not the overdrive: %v", tab.Rows[over])
	}
	if shed := cell(t, tab, over, 3); shed <= 0 {
		t.Errorf("head-of-line stall shed nothing: %v", tab.Rows[over])
	}
	if strings.Contains(tab.Finding, "CLAIM FAILED") {
		t.Errorf("finding reports failure: %s", tab.Finding)
	}
}

func TestA1ShapeClusteredScan(t *testing.T) {
	tab := experiment(t, "A1")
	for r := range tab.Rows {
		clustered := cell(t, tab, r, 2)
		full := cell(t, tab, r, 3)
		if clustered >= full {
			t.Errorf("row %d: clustered scan no cheaper", r)
		}
	}
}

func TestA2ShapeWiderWindowsRebuildLess(t *testing.T) {
	tab := experiment(t, "A2")
	prev := 1 << 60
	for r := range tab.Rows {
		rb := int(cell(t, tab, r, 2))
		if rb > prev {
			t.Errorf("row %d: rebuilds increased with width", r)
		}
		prev = rb
	}
}

func TestA3ShapeAdaptiveNearBest(t *testing.T) {
	tab := experiment(t, "A3")
	for r := range tab.Rows {
		rowT := cell(t, tab, r, 1)
		colT := cell(t, tab, r, 2)
		adT := cell(t, tab, r, 3)
		best := rowT
		if colT < best {
			best = colT
		}
		worst := rowT
		if colT > worst {
			worst = colT
		}
		if adT > worst {
			t.Errorf("row %d: adaptive (%g) worse than worst static (%g)", r, adT, worst)
		}
		if adT > 3*best {
			t.Errorf("row %d: adaptive (%g) more than 3x best static (%g)", r, adT, best)
		}
	}
}

func TestA4ShapeUndoTradeoff(t *testing.T) {
	tab := experiment(t, "A4")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	physLog := cell(t, tab, 0, 3)
	replayLog := cell(t, tab, 1, 3)
	if replayLog >= physLog {
		t.Errorf("replay log (%g) not smaller than physical (%g)", replayLog, physLog)
	}
	physUndo := cell(t, tab, 0, 4)
	replayUndo := cell(t, tab, 1, 4)
	if physUndo >= replayUndo {
		t.Errorf("physical undo (%g) not cheaper than replay (%g)", physUndo, replayUndo)
	}
}

func TestA5ShapePoolCoverage(t *testing.T) {
	tab := experiment(t, "A5")
	for r := range tab.Rows {
		frames := int(cell(t, tab, r, 0))
		pages := int(cell(t, tab, r, 1))
		repeatReads := int(cell(t, tab, r, 3))
		if frames >= pages && repeatReads != 0 {
			t.Errorf("row %d: covering pool still re-read %d pages", r, repeatReads)
		}
		if frames < pages && repeatReads == 0 {
			t.Errorf("row %d: undersized pool read nothing", r)
		}
	}
}

func TestFigureTables(t *testing.T) {
	f1 := experiment(t, "F1")
	if len(f1.Rows) != 9 {
		t.Errorf("F1 rows = %d", len(f1.Rows))
	}
	f4 := experiment(t, "F4")
	if len(f4.Rows) != 3 {
		t.Errorf("F4 rows = %d", len(f4.Rows))
	}
}
