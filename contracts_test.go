package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// ciRun matches a named-guards command line: its -run alternatives
	// and the package it runs them in.
	ciRun = regexp.MustCompile(`^go test -run='([^']*)' -v (\.\S*)$`)
	// ciFuzz matches a bounded fuzz command line: its target and package.
	ciFuzz = regexp.MustCompile(`^(?:run: )?go test -run=NONE -fuzz=(\w+) -fuzztime=\S+ (\.\S*)$`)
)

// contract is one row of DESIGN.md "Contracts".
type contract struct {
	id, test, pkg, argued string
	smoke                 bool
}

// TestContractsMatchCI holds DESIGN.md "Contracts", the one list of the
// claims tests hold, to the test sources and to the CI workflow:
//   - (a) every -run alternative of the named guards and every -fuzz
//     target is a func declared in the _test.go files of the package
//     its line runs;
//   - (b) the rows marked smoke are exactly the tests CI runs by name,
//     package by package, each once;
//   - (c) every row's test is declared in its package;
//   - (d) every row's "argued in" is a "## " section of the design
//     notes;
//   - (e) no row ID repeats.
//
// A parse that finds no row, no -run line or no -fuzz line fails, so a
// changed format cannot pass by matching nothing.
func TestContractsMatchCI(t *testing.T) {
	lines, sections := designNotes(t)
	rows := contractRows(t, lines)
	if len(rows) == 0 {
		t.Fatal(`found no row in DESIGN.md "Contracts"; the parse is broken`)
	}
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{}
	declared := func(pkg, name string) bool {
		src, ok := srcs[pkg]
		if !ok {
			files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(data)
			}
			src = b.String()
			srcs[pkg] = src
		}
		return strings.Contains(src, "\nfunc "+name+"(")
	}

	ci := map[string]bool{} // "pkg name" for every test CI runs by name
	runs, fuzzes := 0, 0
	for _, l := range strings.Split(string(data), "\n") {
		l = strings.TrimSpace(l)
		var names []string
		var pkg string
		if m := ciRun.FindStringSubmatch(l); m != nil {
			names, pkg = strings.Split(m[1], "|"), m[2]
			runs++
		} else if m := ciFuzz.FindStringSubmatch(l); m != nil {
			names, pkg = []string{m[1]}, m[2]
			fuzzes++
		}
		for _, name := range names {
			ci[pkg+" "+name] = true
			if !declared(pkg, name) {
				t.Errorf("ci.yml runs %s in %s, which declares no such test", name, pkg)
			}
		}
	}
	if runs == 0 || fuzzes == 0 {
		t.Fatalf("found %d go test -run lines and %d -fuzz lines in ci.yml; the parse is broken", runs, fuzzes)
	}

	ids, smoke, tests := map[string]bool{}, map[string]bool{}, map[string]string{}
	for _, r := range rows {
		key := r.pkg + " " + r.test
		if ids[r.id] {
			t.Errorf("contract ID %s is used twice", r.id)
		}
		ids[r.id] = true
		if other, ok := tests[key]; ok {
			t.Errorf("contracts %s and %s both name %s in %s", other, r.id, r.test, r.pkg)
		}
		tests[key] = r.id
		if !declared(r.pkg, r.test) {
			t.Errorf("contract %s names %s in %s, which declares no such test", r.id, r.test, r.pkg)
		}
		if !sections[r.argued] {
			t.Errorf("contract %s is argued in %q, which is no section of DESIGN.md", r.id, r.argued)
		}
		if r.smoke {
			smoke[key] = true
			if !ci[key] {
				t.Errorf("contract %s marks %s in %s smoke, but ci.yml does not run it by name", r.id, r.test, r.pkg)
			}
		}
	}
	for key := range ci {
		if !smoke[key] {
			pkg, name, _ := strings.Cut(key, " ")
			t.Errorf("ci.yml runs %s in %s by name, but no smoke row of the contracts names it there", name, pkg)
		}
	}
	t.Logf("%d contracts, %d run by name in CI", len(rows), len(ci))
}

// contractRows parses the table of DESIGN.md "Contracts": the ID, the
// claim, the test and its package (each in backquotes), smoke or an
// empty cell, and the section that argues the claim.
func contractRows(t *testing.T, lines []string) []contract {
	t.Helper()
	start := slices.Index(lines, "## Contracts")
	if start < 0 {
		t.Fatal(`DESIGN.md has no "Contracts" section`)
	}
	var rows []contract
	for _, l := range lines[start+1:] {
		if strings.HasPrefix(l, "## ") {
			break
		}
		if !strings.HasPrefix(l, "| ") || strings.HasPrefix(l, "| ID ") {
			continue
		}
		cells := strings.Split(strings.Trim(l, "|"), "|")
		if len(cells) != 6 {
			t.Errorf("contract row with %d cells, want 6: %s", len(cells), l)
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		smoke := cells[4] == "smoke"
		if !smoke && cells[4] != "" {
			t.Errorf("contract %s: CI cell %q, want smoke or nothing", cells[0], cells[4])
		}
		rows = append(rows, contract{
			id:     cells[0],
			test:   strings.Trim(cells[2], "`"),
			pkg:    strings.Trim(cells[3], "`"),
			smoke:  smoke,
			argued: cells[5],
		})
	}
	return rows
}
