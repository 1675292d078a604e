package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The smoke run keeps every workload's shape (nodes, sessions, op
// kinds, hooks) but shrinks it: smokeOps ops (a multiple of
// ring_adapt's 6 sessions × 3 entry nodes) on smokeK-cluster
// platforms, so it stays a few seconds even under -race. No assertion
// below depends on a timing.
const (
	smokeOps = 36
	smokeK   = 8
)

// benchmarkFile is the committed contract the program must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program default %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue:\n%+v\n%+v", bf.PerLayer, perLayer)
	}
}

// checkReport asserts that report printed every metric of defs exactly
// once, with its unit and a finite value, and the same in the result
// line.
func checkReport(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	report(&buf, res, defs)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	seen := map[string]int{}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		for _, d := range defs {
			if f[0] != d.Name {
				continue
			}
			seen[d.Name]++
			if f[2] != d.Unit {
				t.Errorf("%s: %s printed with unit %q, want %q", res.workload, d.Name, f[2], d.Unit)
			}
			if v, err := strconv.ParseFloat(f[1], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s printed as %q, want a finite number", res.workload, d.Name, f[1])
			}
		}
	}
	for _, d := range defs {
		if seen[d.Name] != 1 {
			t.Errorf("%s: %s printed %d times, want once", res.workload, d.Name, seen[d.Name])
		}
	}
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: result line: %v", res.workload, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s: result line %+v, want correct with 0 failed", res.workload, out)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: result line has %d metrics, want %d", res.workload, len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		if got, ok := out.Metrics[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("%s: result line metric %s = %+v, want unit %s", res.workload, d.Name, got, d.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, full := range workloads {
		small := *full
		small.ks = make([]int, len(full.ks))
		for i := range small.ks {
			small.ks[i] = smokeK
		}
		if small.every > 0 {
			small.every = smokeOps / 3 // three commit-to-commit blocks for -seed to order
		}
		wl := &small
		res, err := run(wl, 1, smokeOps, minReplays)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Errorf("%s: %d failed ops, oracle: %v", wl.name, res.failed, res.problems)
		}
		checkReport(t, res, endToEnd)

		// run built the seed-1 list three times and failed unless all
		// three digests agreed; the traced run takes another seed.
		traced, err := runTraced(wl, 2, smokeOps, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !traced.correct() {
			t.Errorf("%s traced: %d failed ops, problems: %v", wl.name, traced.failed, traced.problems)
		}
		checkReport(t, traced, perLayer)
		if traced.digest == res.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", wl.name, res.digest)
		}
		checkTrace(t, wl, filepath.Join(dir, wl.name+".trace.json"))
	}
}

// checkTrace parses a trace file and asserts its shape: every client
// span has a handler child on its entry node; every forward or
// replicate span hangs under a handler span of another node; and on
// the ring exactly two of each round's three reads are forwarded and
// every commit fans out one replica.
func checkTrace(t *testing.T, wl *workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := map[int]*span{}
	children := map[int][]*span{}
	for i := range tf.Spans {
		s := &tf.Spans[i]
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	var clients, reads, forwardedReads, commits, replicas int
	for i := range tf.Spans {
		s := &tf.Spans[i]
		switch {
		case s.Node == "client":
			clients++
			if len(children[s.ID]) != 1 || children[s.ID][0].Hop != "" {
				t.Errorf("%s: client span %d (%s) has %d handler children, want 1", wl.name, s.ID, s.Name, len(children[s.ID]))
				continue
			}
			forwarded := false
			for _, g := range children[children[s.ID][0].ID] {
				forwarded = forwarded || g.Hop == "forward"
			}
			if strings.HasSuffix(s.Name, "/query") {
				reads++
				if forwarded {
					forwardedReads++
				}
			}
			if strings.HasSuffix(s.Name, "/epoch") {
				commits++
			}
		case s.Hop != "":
			p := byID[s.Parent]
			if p == nil || p.Node == "client" || p.Node == s.Node {
				t.Errorf("%s: %s span %d on %s has parent %+v, want a handler span on another node", wl.name, s.Hop, s.ID, s.Node, p)
			}
			if s.Hop == "replicate" {
				replicas++
			}
		case byID[s.Parent] == nil || byID[s.Parent].Node != "client":
			t.Errorf("%s: handler span %d (%s on %s) has no client parent", wl.name, s.ID, s.Name, s.Node)
		}
	}
	if clients == 0 {
		t.Errorf("%s: trace has no client spans", wl.name)
	}
	if wl.nodes > 1 && (3*forwardedReads != 2*reads || reads == 0) {
		t.Errorf("%s: %d of %d reads forwarded, want two thirds", wl.name, forwardedReads, reads)
	}
	if wl.nodes > 1 && replicas != commits {
		t.Errorf("%s: %d replicate spans for %d commits", wl.name, replicas, commits)
	}
}
