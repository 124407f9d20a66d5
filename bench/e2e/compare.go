package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f setFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != setSchema || f.Kind != "e2e" {
		return nil, fmt.Errorf("%s: schema %q kind %q, want %q kind \"e2e\"", path, f.Schema, f.Kind, setSchema)
	}
	return &f, nil
}

// spread is the distance between a metric's best and worst round as a
// share of its median.
func spread(m *setMetric) float64 {
	if len(m.Rounds) == 0 || m.Median == 0 {
		return 0
	}
	lo, hi := m.Rounds[0], m.Rounds[0]
	for _, v := range m.Rounds {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / m.Median
}

// verdict classifies one (workload, metric) row. worsening is the
// change of the median as a share of the old one, positive when worse.
//
//	ok          within the bound, or every new round beats every old one
//	worse       beyond the bound, with rounds tight enough to tell —
//	            or so far beyond that every new round loses to every old one
//	unresolved  the rounds of either side spread wider than the bound, so
//	            the medians cannot settle it
func verdict(old, cur *setMetric, bound float64) (worsening float64, status string) {
	sign := 1.0
	if cur.Better == "higher" {
		sign = -1
	}
	worsening = sign * (cur.Median - old.Median) / old.Median
	allBetter, allWorse := true, true
	for _, n := range cur.Rounds {
		for _, o := range old.Rounds {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
			if sign*(n-o) <= 0 {
				allWorse = false
			}
		}
	}
	wide := spread(old) > bound || spread(cur) > bound
	switch {
	case allBetter || worsening <= bound && !wide:
		return worsening, "ok"
	case worsening > bound && (!wide || allWorse):
		return worsening, "worse"
	default:
		return worsening, "unresolved"
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of the
// old file and returns 1 if any row is worse, a metric or workload of
// the old file is missing from the new one, or the exact counts of a
// workload moved; else 2 if the files cannot be read, are not of one
// seed and length, or the host's speed moved within or between the sets
// (nothing worse was seen, but nothing is vouched for); else 0.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := loadSet(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	cur, err := loadSet(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds {
		fmt.Fprintf(stderr, "e2e: old is seed %d for %v s, new is seed %d for %v s: the inputs differ, so neither counts nor times compare\n",
			old.Seed, old.Seconds, cur.Seed, cur.Seconds)
		return 2
	}
	level := func(f *setFile) float64 { return (f.YardstickMs[0] + f.YardstickMs[1]) / 2 }
	between := drift(level(old), level(cur))
	drifted := old.Drifted || cur.Drifted || between > driftLimit
	if drifted {
		fmt.Fprintf(stderr, "e2e: drifted old=%v new=%v, yardstick %.3f ms old, %.3f ms new (%.1f %% apart, limit %.0f %%): the host's speed moved, so the time rows below are not evidence either way\n",
			old.Drifted, cur.Drifted, level(old), level(cur), between*100, driftLimit*100)
	}
	names := make([]string, 0, len(old.Workloads))
	for name := range old.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tdelta %\tbound %\tstatus\t")
	worse := 0
	for _, name := range names {
		ow, cw := old.Workloads[name], cur.Workloads[name]
		if cw == nil {
			cw = &setWorkload{}
		}
		for _, def := range endToEnd {
			om, cm := ow.Metrics[def.name], cw.Metrics[def.name]
			if om == nil || om.Median == 0 {
				continue
			}
			if cm == nil {
				// A metric that stopped being reported is not a metric that held.
				fmt.Fprintf(tw, "%s\t%s\t%.4f\t-\t\t%.1f\tworse (missing)\t\n", name, def.name, om.Median, def.bound*100)
				worse++
				continue
			}
			_, status := verdict(om, cm, def.bound)
			delta := (cm.Median - om.Median) / om.Median * 100
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.2f\t%.1f\t%s\t\n", name, def.name, om.Median, cm.Median, delta, def.bound*100, status)
			if status == "worse" {
				worse++
			}
		}
		// One seed and one length give one stream of inputs, so verdicts
		// and restarts repeat exactly: a change here is a change of
		// behaviour (the paper's restart ratio among them), never noise.
		for _, c := range []struct {
			name     string
			old, cur [2]int64
		}{
			{"accepted/rejected", [2]int64{ow.Accepted, ow.Rejected}, [2]int64{cw.Accepted, cw.Rejected}},
			{"restarts/read_txns", [2]int64{ow.Restarts, ow.ReadTxns}, [2]int64{cw.Restarts, cw.ReadTxns}},
		} {
			status := "ok"
			if c.old != c.cur {
				status = "worse (moved)"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d/%d\t\t0.0\t%s\t\n", name, c.name, c.old[0], c.old[1], c.cur[0], c.cur[1], status)
		}
	}
	tw.Flush()
	switch {
	case worse > 0:
		fmt.Fprintf(stdout, "%d worse\n", worse)
		return 1
	case drifted:
		return 2
	}
	return 0
}
