package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// quick returns a config small enough for unit tests but large enough for
// the qualitative shapes to show.
func quick() Config {
	return Config{Seed: 3, Repetitions: 1, Horizon: 50 * time.Minute, Warmup: 0.6}
}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d)", tab.Title, row, col)
	}
	return tab.Rows[row][col]
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := cell(t, tab, row, col)
	// meanStd cells look like "12.34 ± 0.56" — take the mean.
	s = strings.TrimSpace(strings.SplitN(s, "±", 2)[0])
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d)=%q not numeric: %v", row, col, s, err)
	}
	return v
}

func TestTable2RendersClusterInventory(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 5 {
		t.Fatalf("Table 2 has %d rows, want 5", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Xeon Bronze", "I5-10400", "Master", "SSD", "HDD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	var buf bytes.Buffer
	tab.CSV(&buf)
	if got := buf.String(); got != "a,b\n1,2\n3,4\n" {
		t.Fatalf("CSV=%q", got)
	}
}

func TestFig2Shape(t *testing.T) {
	tab, err := Fig2(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 20 {
		t.Fatalf("Fig 2 has %d rows, want 20 (intervals 2..40)", len(tab.Rows))
	}
	// Shape 1: the smallest interval is unstable with a large scheduling
	// delay; the largest is stable with ~none.
	firstSched := cellFloat(t, tab, 0, 2)
	lastSched := cellFloat(t, tab, len(tab.Rows)-1, 2)
	if firstSched < 10 {
		t.Errorf("interval 2s sched delay %.2f, expected divergence", firstSched)
	}
	if lastSched > 1 {
		t.Errorf("interval 40s sched delay %.2f, expected ≈0", lastSched)
	}
	if cell(t, tab, 0, 4) != "false" || cell(t, tab, len(tab.Rows)-1, 4) != "true" {
		t.Error("stability flags don't bracket the knee")
	}
	// Shape 2: processing time grows with the interval in the stable
	// region (compare 20s vs 40s rows).
	if cellFloat(t, tab, 9, 1) >= cellFloat(t, tab, 19, 1) {
		t.Error("processing time not increasing with interval")
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("Fig 3 has %d rows, want 10 (executors 2..20)", len(tab.Rows))
	}
	// Few executors are slow and unstable; mid-range is stable and fast.
	if cell(t, tab, 0, 4) != "false" {
		t.Error("2 executors should be unstable")
	}
	if cell(t, tab, 7, 4) != "true" { // 16 executors
		t.Error("16 executors should be stable")
	}
	if cellFloat(t, tab, 0, 1) <= cellFloat(t, tab, 7, 1) {
		t.Error("2 executors should process slower than 16")
	}
}

func TestFig5BandsRespectPaper(t *testing.T) {
	tab, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Fig 5 has %d rows", len(tab.Rows))
	}
	bands := map[string][2]float64{
		"LogisticRegression": {7000, 13000},
		"LinearRegression":   {80000, 120000},
		"WordCount":          {110000, 190000},
		"PageAnalyze":        {170000, 230000},
	}
	for i := range tab.Rows {
		name := cell(t, tab, i, 0)
		b := bands[name]
		min := cellFloat(t, tab, i, 2)
		mean := cellFloat(t, tab, i, 3)
		max := cellFloat(t, tab, i, 4)
		if min < b[0] || max > b[1] {
			t.Errorf("%s observed [%v,%v] outside band %v", name, min, max, b)
		}
		if mean < (b[0]+b[1])/2*0.9 || mean > (b[0]+b[1])/2*1.1 {
			t.Errorf("%s mean %v far from band centre", name, mean)
		}
	}
}

func TestFig6ProducesEvolution(t *testing.T) {
	tab, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 8 {
		t.Fatalf("Fig 6 only has %d rows", len(tab.Rows))
	}
	if len(tab.Notes) != 4 {
		t.Fatalf("Fig 6 notes per workload: %v", tab.Notes)
	}
}

func TestFig7NoStopWins(t *testing.T) {
	tab, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Fig 7 rows: %d", len(tab.Rows))
	}
	wins := 0
	for i := range tab.Rows {
		def := cellFloat(t, tab, i, 1)
		tuned := cellFloat(t, tab, i, 2)
		if tuned < def {
			wins++
		}
	}
	// The paper's core claim: NoStop improves every workload. At quick
	// scale allow one workload to be still mid-convergence.
	if wins < 3 {
		t.Fatalf("NoStop won only %d/4 workloads:\n%+v", wins, tab.Rows)
	}
}

func TestBackPressureContrast(t *testing.T) {
	tab, err := BackPressure(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	unstable := cellFloat(t, tab, 0, 1)
	bp := cellFloat(t, tab, 1, 1)
	nostop := cellFloat(t, tab, 2, 1)
	if bp >= unstable || nostop >= unstable {
		t.Fatalf("controllers did not beat the unstable baseline: %v %v %v", unstable, bp, nostop)
	}
	// Back pressure must drop records; NoStop must not.
	if cell(t, tab, 1, 3) == "0" {
		t.Error("back pressure dropped nothing on an overloaded system")
	}
	if cell(t, tab, 2, 3) != "0" {
		t.Error("NoStop should not drop records")
	}
	// NoStop sustains higher throughput than back pressure.
	if cellFloat(t, tab, 2, 4) <= cellFloat(t, tab, 1, 4) {
		t.Error("NoStop throughput not above back pressure's")
	}
}

// TestEveryExperimentRuns runs every named experiment at Quick() scale:
// no error, at least two rows, and no empty cell.
func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			tab, err := e.Run(Quick())
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) < 2 {
				t.Fatalf("only %d rows", len(tab.Rows))
			}
			for _, row := range tab.Rows {
				for _, c := range row {
					if c == "" {
						t.Fatalf("empty cell in %v", row)
					}
				}
			}
		})
	}
}

func TestAblationGainsGrid(t *testing.T) {
	cfg := quick()
	cfg.Horizon = 30 * time.Minute
	tab, err := AblationGains(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("gain grid rows: %d, want 9", len(tab.Rows))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 1 || c.Repetitions != 5 || c.Horizon != 2*time.Hour || c.Warmup != 0.7 {
		t.Fatalf("defaults: %+v", c)
	}
	q := Quick()
	if q.Repetitions != 1 {
		t.Fatalf("Quick: %+v", q)
	}
	for _, ok := range []Config{{}, q, c} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", ok, err)
		}
	}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Repetitions: -1}, "negative repetitions -1"},
		{Config{Horizon: -5 * time.Minute}, "negative horizon -5m0s"},
		{Config{Parallelism: -1}, "negative parallelism -1"},
		{Config{Warmup: 1}, "warmup 1.00 outside [0, 1)"},
		{Config{Warmup: 1.5}, "warmup 1.50 outside [0, 1)"},
		{Config{Warmup: -0.5}, "warmup -0.50 outside [0, 1)"},
	} {
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", tc.cfg, err, tc.want)
		}
	}
}

func TestRenderAligns(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"aa", "1"}, {"bbbb", "22"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "note: hello") {
		t.Error("note missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("short render: %q", out)
	}
}
