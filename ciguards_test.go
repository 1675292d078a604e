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
	// guardBullet matches a bullet of the named-guards step's comment:
	// the test it describes, then a colon.
	guardBullet = regexp.MustCompile(`^#\s+- (Test\w+):`)
	// guardRun matches one of the step's command lines: its -run
	// alternatives and the package it runs them in.
	guardRun = regexp.MustCompile(`^go test -run='([^']*)' -v (\.\S*)$`)
)

// TestNamedGuardsMatchTheirBullets: CI's "named guards" step re-runs
// tests by name and says in its comment, one bullet per test, what each
// guards. Every -run alternative must name a func TestX( in the
// _test.go files of the package its line runs, and the bullets must
// name exactly the tests the step runs, so a guard is neither run
// unexplained nor explained and never run.
func TestNamedGuardsMatchTheirBullets(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	start := slices.IndexFunc(lines, func(l string) bool { return strings.TrimSpace(l) == "- name: named guards" })
	if start < 0 {
		t.Fatal("ci.yml has no named guards step")
	}
	bullets, runs := map[string]bool{}, map[string]bool{}
	for _, l := range lines[start+1:] {
		l = strings.TrimSpace(l)
		if strings.HasPrefix(l, "- name:") {
			break
		}
		if m := guardBullet.FindStringSubmatch(l); m != nil {
			bullets[m[1]] = true
			continue
		}
		m := guardRun.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		files, err := filepath.Glob(filepath.Join(m[2], "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var src strings.Builder
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src.Write(b)
		}
		for _, name := range strings.Split(m[1], "|") {
			runs[name] = true
			if !strings.Contains(src.String(), "\nfunc "+name+"(t *testing.T) {") {
				t.Errorf("the named guards run %s in %s, which declares no such test", name, m[2])
			}
		}
	}
	if len(runs) == 0 {
		t.Fatal("found no go test -run line in the named guards step; the parse is broken")
	}
	for name := range runs {
		if !bullets[name] {
			t.Errorf("the named guards run %s without a bullet saying what it guards", name)
		}
	}
	for name := range bullets {
		if !runs[name] {
			t.Errorf("the named guards have a bullet for %s but do not run it", name)
		}
	}
	t.Logf("%d named guards", len(runs))
}
