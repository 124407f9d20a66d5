package conformance

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Counterexample is a persisted, shrunk conformance failure: the seed
// tuple it was found under, the minimized workload, and the induced
// history it produced, so a regression test replays it byte-for-byte on
// every go test. Files are plain JSON under internal/conformance/corpus.
type Counterexample struct {
	// Seed is the generator seed of the original (pre-shrink) workload.
	Seed int64 `json:"seed"`
	// Note says what the entry pins down (free text).
	Note string `json:"note,omitempty"`
	// Violation is the Kind of the first violation observed when the
	// entry was recorded. Empty for clean regression pins: replay then
	// expects zero violations.
	Violation string `json:"violation,omitempty"`
	// Detail is the violation detail text at record time (informational;
	// not compared on replay).
	Detail string `json:"detail,omitempty"`
	// History is the whole-run induced history at record time, in the
	// paper's parseable notation. Replay compares it exactly, pinning
	// trace determinism.
	History string `json:"history,omitempty"`
	// Workload is the (shrunk) scenario to replay.
	Workload *Workload `json:"workload"`
}

// EncodeCounterexample renders ce as indented JSON.
func EncodeCounterexample(ce *Counterexample) ([]byte, error) {
	if ce.Workload == nil {
		return nil, fmt.Errorf("conformance: counterexample has no workload")
	}
	if err := ce.Workload.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(ce, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeCounterexample parses and validates one corpus entry.
func DecodeCounterexample(data []byte) (*Counterexample, error) {
	var ce Counterexample
	if err := json.Unmarshal(data, &ce); err != nil {
		return nil, err
	}
	if ce.Workload == nil {
		return nil, fmt.Errorf("conformance: corpus entry has no workload")
	}
	if err := ce.Workload.Validate(); err != nil {
		return nil, err
	}
	return &ce, nil
}

// WriteCounterexample persists ce into dir (created if needed), naming
// the file by a content hash so identical counterexamples dedupe and
// names stay stable across runs. Returns the file path.
func WriteCounterexample(dir string, ce *Counterexample) (string, error) {
	data, err := EncodeCounterexample(ce)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	name := fmt.Sprintf("ce-%x.json", sum[:6])
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCorpus reads every *.json counterexample in dir, sorted by file
// name for determinism. A missing directory is an empty corpus, not an
// error; an unparsable entry is.
func LoadCorpus(dir string) (map[string]*Counterexample, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := make(map[string]*Counterexample, len(names))
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		ce, err := DecodeCounterexample(data)
		if err != nil {
			return nil, fmt.Errorf("conformance: corpus entry %s: %w", name, err)
		}
		out[name] = ce
	}
	return out, nil
}

// Replay re-checks one corpus entry. Under its workload's Defect the run
// must report the pinned Violation kind first; with the defect cleared
// it must report none, and an entry pinning no violation must reproduce
// its History golden. It returns the first mismatch, nil if it holds.
func Replay(ce *Counterexample) error {
	w := ce.Workload
	if w.Defect != DefectNone {
		rep, err := CheckWorkload(w)
		if err == nil && (len(rep.Violations) == 0 || rep.Violations[0].Kind != ce.Violation) {
			err = fmt.Errorf("under defect %s: want first violation %q, got %v", w.Defect, ce.Violation, rep.Violations)
		}
		if err != nil {
			return err
		}
		w = w.Clone()
		w.Defect = DefectNone
	}
	rep, err := CheckWorkload(w)
	switch {
	case err != nil:
		return err
	case len(rep.Violations) > 0:
		return fmt.Errorf("replay violates conformance: %v", rep.Violations[0])
	case ce.Violation == "" && ce.History != "" && rep.History != ce.History:
		return fmt.Errorf("induced history drifted from golden:\ngot  %s\nwant %s", rep.History, ce.History)
	}
	return nil
}
