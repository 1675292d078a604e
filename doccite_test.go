package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designCite matches a citation of the design notes and, when there is
// one, the quoted section title that follows it: the file name, an
// optional comma, then the title in double quotes.
var designCite = regexp.MustCompile(`DESIGN\.md(?:,?\s*"([^"]*)")?`)

// TestDesignCitationsResolve: every Go comment in the module that cites
// the design notes names, in quotes right after the file name, a "## "
// section that the notes have. The quoted title may wrap across comment
// lines. A bare citation, or one whose section is gone, fails.
func TestDesignCitationsResolve(t *testing.T) {
	_, sections := designNotes(t)
	fset := token.NewFileSet()
	cites := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			text := strings.Join(strings.Fields(cg.Text()), " ")
			for _, m := range designCite.FindAllStringSubmatchIndex(text, -1) {
				cites++
				at := fset.Position(cg.Pos())
				switch {
				case m[2] < 0:
					t.Errorf("%s: DESIGN.md cited without a quoted section: %q", at, text[m[0]:min(m[1]+40, len(text))])
				case !sections[text[m[2]:m[3]]]:
					t.Errorf("%s: DESIGN.md has no section %q", at, text[m[2]:m[3]])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites == 0 {
		t.Fatal("found no citation of the design notes; the walk is broken")
	}
}

// designNotes reads the design notes and returns their lines and the
// titles of their "## " sections.
func designNotes(t *testing.T) ([]string, map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	sections := map[string]bool{}
	for _, line := range lines {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			sections[strings.TrimSpace(title)] = true
		}
	}
	return lines, sections
}
