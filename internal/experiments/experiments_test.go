package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mimicnet/internal/serve"
	"mimicnet/internal/sim"
)

// tinySpec shrinks every knob for fast test execution.
func tinySpec() serve.JobSpec {
	s := Default()
	s.WorkloadMs = 80
	s.RunMs = 160
	s.SmallRunMs = 120
	s.Window = 4
	s.Hidden = 8
	s.Epochs = 1
	return s
}

func TestTablePrinting(t *testing.T) {
	tb := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "a    bb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunnerCachesArtifacts(t *testing.T) {
	r := NewRunner(tinySpec())
	a1, err := r.trainedFor("newreno")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.trainedFor("newreno")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("artifacts not cached")
	}
}

func TestTable1(t *testing.T) {
	r := NewRunner(tinySpec())
	tb, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Errorf("Table 1 rows = %d", len(tb.Rows))
	}
}

func TestFig1Small(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb, err := r.Fig1([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 4 {
		t.Errorf("Fig1 shape wrong: %+v", tb.Rows)
	}
}

func TestFig2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb, err := r.Fig2([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("Fig2 rows = %d", len(tb.Rows))
	}
	// Every PDES cell must come from a sharded run: one window per link
	// delay across the horizon, and no remote event late.
	cfg, _, err := r.config("newreno", 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBarriers := uint64(r.Spec.RunTime() / cfg.Link.Delay)
	for _, n := range []int{2, 4} {
		row, sims, err := r.fig2Row(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(sims) != len(row)-2 {
			t.Fatalf("n=%d: %d simulations behind %d pdes cells", n, len(sims), len(row)-2)
		}
		for i, inst := range sims {
			par := inst.Parallel()
			if par == nil {
				t.Fatalf("n=%d %s: simulation ran sequential", n, tb.Header[i+2])
			}
			if par.CausalityClamps != 0 {
				t.Errorf("n=%d %s: %d causality clamps", n, tb.Header[i+2], par.CausalityClamps)
			}
			if par.Barriers != wantBarriers {
				t.Errorf("n=%d %s: %d barriers, want %d", n, tb.Header[i+2], par.Barriers, wantBarriers)
			}
		}
	}
}

func TestFig5And6(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb5, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb5.Rows) != 3 {
		t.Errorf("Fig5 rows = %d", len(tb5.Rows))
	}
	tb6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb6.Rows) != 3 {
		t.Errorf("Fig6 rows = %d", len(tb6.Rows))
	}
}

func TestFig10Small(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb, err := r.Fig10([]int{4}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Errorf("Fig10 rows = %d", len(tb.Rows))
	}
}

func TestFig16And17Small(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb, err := r.Fig16([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("Fig16 rows = %d", len(tb.Rows))
	}
	tb, err = r.Fig17([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("Fig17 rows = %d", len(tb.Rows))
	}
}

func TestTable2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb, err := r.Table2(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Errorf("Table2 rows = %d", len(tb.Rows))
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb, err := r.AblationCongestionState(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("Ablation A rows = %d", len(tb.Rows))
	}
	tb, err = r.AblationFeeders(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("Ablation B rows = %d", len(tb.Rows))
	}
	// Feeders-on must actually generate feeder events; feeders-off none.
	if tb.Rows[0][2] == "0" {
		t.Error("with_feeders produced no feeder events")
	}
	if tb.Rows[1][2] != "0" {
		t.Error("without_feeders produced feeder events")
	}
	tb, err = r.AblationDiscretization([]int{1, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("Ablation C rows = %d", len(tb.Rows))
	}
	tb, err = r.AblationQueues(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("Ablation D rows = %d", len(tb.Rows))
	}
	if _, err := r.AblationFeeders(2); err == nil {
		t.Error("feeder ablation at n=2 should error")
	}
}

func TestAblationFeederDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb, err := r.AblationFeederDistribution(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("Ablation E rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "lognormal" || tb.Rows[1][0] != "empirical" {
		t.Errorf("unexpected variants: %v", tb.Rows)
	}
}

// TestRemainingFigures exercises every experiment function not covered
// above at the tiniest usable scale, asserting shape only.
func TestRemainingFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())

	tb, err := r.Fig7(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Error("Fig7 empty")
	}

	for name, f := range map[string]func([]int) (*Table, error){
		"fig8": r.Fig8, "fig9": r.Fig9,
	} {
		tb, err := f([]int{3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) != 1 {
			t.Errorf("%s rows = %d", name, len(tb.Rows))
		}
	}

	if tb, err = r.Fig11([]int{3}); err != nil || len(tb.Rows) != 1 {
		t.Fatalf("Fig11: %v rows=%d", err, len(tb.Rows))
	}
	if tb, err = r.Fig12([]int{3}); err != nil || len(tb.Rows) != 1 {
		t.Fatalf("Fig12: %v rows=%d", err, len(tb.Rows))
	}
	if tb, err = r.Fig13(3, []int{10, 40}); err != nil || len(tb.Rows) != 2 {
		t.Fatalf("Fig13: %v", err)
	}
	if tb, err = r.Fig14(3); err != nil || len(tb.Rows) != 4 {
		t.Fatalf("Fig14: %v", err)
	}
	if tb, err = r.Fig18(3); err != nil || len(tb.Rows) != 4 {
		t.Fatalf("Fig18: %v", err)
	}
	if tb, err = r.Fig19(3); err != nil || len(tb.Rows) != 4 {
		t.Fatalf("Fig19: %v", err)
	}
	if tb, err = r.Fig20(3); err != nil || len(tb.Rows) != 2 {
		t.Fatalf("Fig20: %v", err)
	}
	lat, tput, err := r.Fig21And22(3, []sim.Time{100 * sim.Millisecond, 200 * sim.Millisecond})
	if err != nil || len(lat.Rows) != 2 || len(tput.Rows) != 2 {
		t.Fatalf("Fig21/22: %v", err)
	}
	if tb, err = r.Fig23([]int{3}); err != nil || len(tb.Rows) != 1 {
		t.Fatalf("Fig23: %v", err)
	}
}

func TestAblationModelClass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(tinySpec())
	tb, err := r.AblationModelClass(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("Ablation F rows = %d", len(tb.Rows))
	}
}
