package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// The ids as bcbench has always run and printed them under -figure all:
// studies first, then the fourteen sweeps.
var (
	wantStudies = []string{"delta", "grouped", "quasi", "shard", "wire"}
	wantSweeps  = []string{"2a", "2b", "3a", "3b", "4a", "4b", "groups", "caching",
		"disks", "updates", "clients", "faults", "airsched", "airdisks"}
)

func idsOf(figs []*Figure) []string {
	var ids []string
	for _, f := range figs {
		ids = append(ids, f.ID)
	}
	return ids
}

func TestFigureTableIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := range figures {
		id := figures[i].ID
		if seen[id] || id == "all" || id != strings.ToLower(id) {
			t.Errorf("figure id %q is duplicated, reserved or not lower-case", id)
		}
		seen[id] = true
	}
	if len(figures) != 20 {
		t.Errorf("table has %d rows, want 20", len(figures))
	}
	want := append(append(append([]string{}, wantStudies...), wantSweeps...), "scale")
	if got := strings.Split(FigureIDs(), ", "); !reflect.DeepEqual(got, want) {
		t.Errorf("FigureIDs = %v, want %v", got, want)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := idsOf(all), append(append([]string{}, wantStudies...), wantSweeps...); !reflect.DeepEqual(got, want) {
		t.Errorf(`Select("all") = %v, want %v`, got, want)
	}
	for i, f := range all {
		if f.IsSweep() != (i >= len(wantStudies)) {
			t.Errorf("figure %s: IsSweep = %v", f.ID, f.IsSweep())
		}
	}
	one, err := Select("SCALE")
	if err != nil || len(one) != 1 || one[0].ID != "scale" || one[0].IsSweep() {
		t.Errorf(`Select("SCALE") = %v, %v`, idsOf(one), err)
	}
	_, err = Select("bogus")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	for i := range figures {
		if !strings.Contains(err.Error(), figures[i].ID) {
			t.Errorf("unknown-figure error omits %q: %v", figures[i].ID, err)
		}
	}
	for _, id := range []string{"grouped", "all"} {
		if _, err := ByID(id, quick()); err == nil {
			t.Errorf("ByID(%q) has no Experiment to return and must fail", id)
		}
	}
}

func TestFigureMetrics(t *testing.T) {
	want := map[string]Metric{
		"2b": RestartRatio, "faults": RestartRatio,
		"airsched": TuningFrames, "airdisks": TuningFrames,
	}
	for i := range figures {
		id := figures[i].ID
		if got := (&Experiment{ID: id}).Metric(); got != want[id] {
			t.Errorf("figure %s plots %q, want %q", id, got.label(), want[id].label())
		}
	}
	if got := (&Experiment{ID: "not-in-the-table"}).Metric(); got != ResponseTime {
		t.Errorf("unknown id plots %q", got.label())
	}
}

// TestEverySweepRowRuns drives each sweep row through ByID and checks
// the experiment against its row; All must yield the same rows in table
// order.
func TestEverySweepRowRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("fourteen sweeps are too slow for -short")
	}
	opt := quick()
	if raceDetectorEnabled { // ~15× slower; the rows are the point, not the scale
		opt.Txns, opt.MeasureFrom = 30, 10
	}
	for _, id := range wantSweeps {
		figs, err := Select(id)
		if err != nil {
			t.Fatal(err)
		}
		f := figs[0]
		e, err := ByID(id, opt)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if e.ID != id || e.Title != f.title || e.XLabel != f.xlabel || len(e.Points) != len(f.xs) || len(e.Labels) == 0 {
			t.Errorf("figure %s came back as %q %q with %d points, labels %v", id, e.ID, e.Title, len(e.Points), e.Labels)
		}
		for i, pt := range e.Points {
			if pt.X != f.xs[i] || len(pt.Runs) != len(e.Labels) {
				t.Errorf("figure %s point %d: x=%g with %d runs", id, i, pt.X, len(pt.Runs))
			}
		}
	}

	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range all {
		if f.IsSweep() {
			got = append(got, f.ID)
		}
	}
	if !reflect.DeepEqual(got, wantSweeps) {
		t.Errorf("the all selection's sweeps are %v, want %v", got, wantSweeps)
	}
}
