package wp2p

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docsScanned are the Markdown files whose cross-references
// TestDocReferencesResolve checks; Go comments under internal/ and cmd/ are
// scanned beside them.
var docsScanned = []string{
	"README.md", "ROADMAP.md", "CHANGES.md", "DESIGN.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

var (
	spaceRun       = regexp.MustCompile(`\s+`)
	experimentsRef = regexp.MustCompile(`EXPERIMENTS(?:\.md)? "([^"]*)"`)
	designRef      = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)(?: "([^"]*)")?`)
	designHeading  = regexp.MustCompile(`^## (\d+)\.`)
	listMarker     = regexp.MustCompile(`^(?:[-*]|\d+\.) `)
	decimalToken   = regexp.MustCompile(`\d+\.\d+(?:e-\d+)?x?`)
)

func normalizeSpace(s string) string { return strings.TrimSpace(spaceRun.ReplaceAllString(s, " ")) }

// docSection is one `## ` section of a Markdown document: its heading line
// and the lines under it, up to the next `## `.
type docSection struct {
	heading string
	lines   []string
}

func readSections(t *testing.T, path string) []docSection {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secs := []docSection{{}}
	fence := false
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "```") {
			fence = !fence
		}
		if !fence && strings.HasPrefix(line, "## ") {
			secs = append(secs, docSection{heading: line})
			continue
		}
		secs[len(secs)-1].lines = append(secs[len(secs)-1].lines, line)
	}
	return secs
}

// anchors are the names a quoted reference may resolve to in a block of
// Markdown: every heading, the bold or italic run that opens a paragraph or
// list item, and the first cell of every table row. Backticks are dropped
// and whitespace is normalised.
func anchors(heading string, lines []string) []string {
	clean := func(s string) string { return normalizeSpace(strings.ReplaceAll(s, "`", "")) }
	var out []string
	if heading != "" {
		out = append(out, clean(strings.TrimLeft(heading, "# ")))
	}
	var para []string
	flush := func() {
		if len(para) == 0 {
			return
		}
		text := normalizeSpace(strings.Join(para, " "))
		para = nil
		for _, mark := range []string{"**", "*"} {
			if strings.HasPrefix(text, mark) && !strings.HasPrefix(text[len(mark):], " ") {
				if end := strings.Index(text[len(mark):], mark); end > 0 {
					out = append(out, clean(text[len(mark):len(mark)+end]))
				}
				break
			}
		}
	}
	fence := false
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			flush()
			fence = !fence
		case fence:
		case trimmed == "":
			flush()
		case strings.HasPrefix(trimmed, "#"):
			flush()
			out = append(out, clean(strings.TrimLeft(trimmed, "# ")))
		case strings.HasPrefix(trimmed, "|"):
			flush()
			if cells := strings.Split(trimmed, "|"); len(cells) > 2 && strings.Trim(cells[1], " -:") != "" {
				out = append(out, clean(cells[1]))
			}
		case listMarker.MatchString(trimmed):
			flush()
			para = append(para, listMarker.ReplaceAllString(trimmed, ""))
		default:
			para = append(para, trimmed)
		}
	}
	flush()
	return out
}

// resolves reports whether name opens one of the anchors, ending at a word
// boundary: "Deviations" resolves to the heading "Deviations, and what would
// test each explanation", but "Deviation" does not.
func resolves(name string, anchors []string) bool {
	name = normalizeSpace(strings.ReplaceAll(name, "`", ""))
	for _, a := range anchors {
		if rest, ok := strings.CutPrefix(a, name); ok {
			if rest == "" || !isWordByte(rest[0]) {
				return true
			}
		}
	}
	return false
}

func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// goComments returns the text of every comment in the Go files under dir.
func goComments(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var b strings.Builder
		for _, g := range f.Comments {
			b.WriteString(g.Text())
			b.WriteString("\n")
		}
		out[path] = b.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDocReferencesResolve holds every cross-document reference to its
// target: `DESIGN §n` must name a `## n.` heading of DESIGN.md, and a quoted
// name after `EXPERIMENTS.md` or `DESIGN §n` must open a heading, a bold or
// italic run-in label, or a table row's first cell there (the section, for
// DESIGN). The placeholder "…" is skipped.
func TestDocReferencesResolve(t *testing.T) {
	expAnchors := []string{}
	for _, s := range readSections(t, "EXPERIMENTS.md") {
		expAnchors = append(expAnchors, anchors(s.heading, s.lines)...)
	}
	designAnchors := map[string][]string{}
	for _, s := range readSections(t, "DESIGN.md") {
		if m := designHeading.FindStringSubmatch(s.heading); m != nil {
			designAnchors[m[1]] = anchors(s.heading, s.lines)
		}
	}

	texts := map[string]string{}
	for _, path := range docsScanned {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts[path] = string(b)
	}
	for _, dir := range []string{"internal", "cmd"} {
		for path, text := range goComments(t, dir) {
			texts[path] = text
		}
	}

	refs := 0
	for path, text := range texts {
		text = normalizeSpace(text)
		for _, m := range experimentsRef.FindAllStringSubmatch(text, -1) {
			if m[1] == "…" {
				continue
			}
			refs++
			if !resolves(m[1], expAnchors) {
				t.Errorf("%s: %s: no heading, run-in label or table row of EXPERIMENTS.md opens with %q", path, m[0], m[1])
			}
		}
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			refs++
			sec, ok := designAnchors[m[1]]
			switch {
			case !ok:
				t.Errorf("%s: %s: DESIGN.md has no `## %s.` heading", path, m[0], m[1])
			case m[2] != "" && m[2] != "…" && !resolves(m[2], sec):
				t.Errorf("%s: %s: no heading, run-in label or table row of DESIGN.md §%s opens with %q", path, m[0], m[1], m[2])
			}
		}
	}
	if refs == 0 {
		t.Fatal("no references found; the scan is broken")
	}
}

// TestExperimentsQuotesReport holds EXPERIMENTS.md to its own rule: every
// decimal it quotes in a "Measured" column of the Summary and Extensions
// tables, and anywhere under Deviations, is printed verbatim somewhere in
// experiments_report_full.md.
func TestExperimentsQuotesReport(t *testing.T) {
	report, err := os.ReadFile("experiments_report_full.md")
	if err != nil {
		t.Fatal(err)
	}
	var quoted []string
	for _, s := range readSections(t, "EXPERIMENTS.md") {
		switch {
		case strings.HasPrefix(s.heading, "## Summary"), strings.HasPrefix(s.heading, "## Extensions"):
			col, header := -1, true
			for _, line := range s.lines {
				if !strings.HasPrefix(line, "|") {
					header = true
					continue
				}
				cells := strings.Split(strings.Trim(line, "|"), "|")
				if header {
					col = slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == "Measured" })
					header = false
				} else if col >= 0 && col < len(cells) {
					quoted = append(quoted, cells[col])
				}
			}
		case strings.HasPrefix(s.heading, "## Deviations"):
			quoted = append(quoted, strings.Join(s.lines, "\n"))
		}
	}
	n := 0
	for _, text := range quoted {
		for _, tok := range decimalToken.FindAllString(text, -1) {
			n++
			if !strings.Contains(string(report), tok) {
				t.Errorf("EXPERIMENTS.md quotes %s, which experiments_report_full.md does not print", tok)
			}
		}
	}
	if n < 50 {
		t.Fatalf("only %d numbers found under Summary, Extensions and Deviations; the scan is broken", n)
	}
}
