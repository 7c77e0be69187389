package depscope

// Documentation drift checks, wired into `make docs-check` (and through it
// into `make verify`). Six invariants:
//
//   - every relative markdown link (and its #anchor, if any) in the curated
//     docs resolves to a real file and a real heading;
//   - every flag documented in a flag table (`| `-name ...` rows) is an
//     actual flag.Xxx("name", ...) definition in some cmd/ binary;
//   - every `make <target>` the docs, the CI workflow and the verify skill
//     name is a target the Makefile defines;
//   - every Test*/Benchmark*/Fuzz* name the narrative docs cite in inline
//     code is a func in the tree;
//   - every example program under examples/ has a Test func;
//   - every counter, gauge and histogram the docs/observability.md catalog
//     names is registered by non-test source.
//
// All walk the committed sources, so they need no network and no build
// artifacts; a doc edit that invents a flag or breaks a link fails go test.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// curatedDocs returns the markdown files whose links and flag tables are
// kept in sync with the code: the top-level narrative docs plus docs/*.md.
// Reference dumps (PAPER.md, PAPERS.md, SNIPPETS.md) and the transient
// ISSUE.md are deliberately excluded.
func curatedDocs(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md"}
	extra, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, extra...)
}

// slugify reduces a heading to its GitHub anchor: lowercase, punctuation
// stripped, spaces replaced by hyphens.
func slugify(heading string) string {
	heading = strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// headingAnchors returns the set of GitHub anchor slugs for every markdown
// heading in the file, skipping fenced code blocks (where a leading # is a
// shell comment, not a heading).
func headingAnchors(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		if text == line || !strings.HasPrefix(text, " ") {
			continue
		}
		// GitHub drops inline-code backticks before slugging.
		anchors[slugify(strings.ReplaceAll(text, "`", ""))] = true
	}
	return anchors
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinksResolve checks that every relative link in the curated docs
// points at an existing file, and that every #anchor names a real heading
// in its target.
func TestDocLinksResolve(t *testing.T) {
	for _, doc := range curatedDocs(t) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") {
				continue
			}
			target, anchor := link, ""
			if i := strings.IndexByte(link, '#'); i >= 0 {
				target, anchor = link[:i], link[i+1:]
			}
			resolved := doc // same-file anchor
			if target != "" {
				resolved = filepath.Join(filepath.Dir(doc), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", doc, link, err)
					continue
				}
			}
			if anchor == "" || !strings.HasSuffix(resolved, ".md") {
				continue
			}
			if !headingAnchors(t, resolved)[anchor] {
				t.Errorf("%s: link %q: no heading in %s slugs to #%s", doc, link, resolved, anchor)
			}
		}
	}
}

var (
	flagDef = regexp.MustCompile(`flag\.(?:Bool|Int|Int64|Uint|Uint64|String|Duration|Float64)\("([a-zA-Z0-9-]+)"`)
	flagDoc = regexp.MustCompile("`-([a-zA-Z0-9-]+)")
)

// TestDocumentedFlagsExist checks that every flag named in a flag-table row
// (lines of the form "| `-name ...`") of the curated docs is defined by
// some binary under cmd/ — catching tables that drift from the code.
func TestDocumentedFlagsExist(t *testing.T) {
	sources, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) == 0 {
		t.Fatal("no cmd/ sources found")
	}
	defined := map[string]bool{}
	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
	}
	if len(defined) == 0 {
		t.Fatal("no flag definitions found under cmd/")
	}
	for _, doc := range curatedDocs(t) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "| `-") {
				continue
			}
			for _, m := range flagDoc.FindAllStringSubmatch(line, -1) {
				if !defined[m[1]] {
					t.Errorf("%s:%d: documents flag -%s, which no cmd/ binary defines", doc, n+1, m[1])
				}
			}
		}
	}
}

var (
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	makeInline = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	makeLine   = regexp.MustCompile(`^\s*(?:- run: )?make ([a-z][a-z0-9-]*)`)
)

// TestDocMakeTargets checks that every make target named in the curated
// docs (CHANGES.md excepted: it is history), the CI workflow and the
// verify skill is defined in the Makefile — inline as `make target`, or as
// a command line in a fenced block or a workflow step.
func TestDocMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		defined[m[1]] = true
	}
	if !defined["verify"] {
		t.Fatal("no verify target found in the Makefile")
	}
	files := []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	for _, doc := range curatedDocs(t) {
		if doc != "CHANGES.md" {
			files = append(files, doc)
		}
	}
	for _, doc := range files {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		commands := !strings.HasSuffix(doc, ".md") // a workflow: every line
		for n, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				commands = !commands
				continue
			}
			refs := makeInline.FindAllStringSubmatch(line, -1)
			if commands {
				refs = append(refs, makeLine.FindAllStringSubmatch(line, -1)...)
			}
			for _, m := range refs {
				if !defined[m[1]] {
					t.Errorf("%s:%d: names `make %s`, which the Makefile does not define", doc, n+1, m[1])
				}
			}
		}
	}
}

var (
	testFuncDef = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	codeSpan    = regexp.MustCompile("`[^`]+`")
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
)

// TestDocTestNamesExist checks that every Test*/Benchmark*/Fuzz* name the
// narrative docs cite in inline code (README, DESIGN, EXPERIMENTS and
// docs/*.md) is a func somewhere in the tree — a cited subtest needs its
// parent, and a trailing * names a prefix some func must start with — so a
// renamed or deleted test cannot leave a stale citation behind.
func TestDocTestNamesExist(t *testing.T) {
	var defined []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDef.FindAllStringSubmatch(string(data), -1) {
			defined = append(defined, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no test funcs found in the tree")
	}
	exists := func(name string) bool {
		prefix, isPrefix := strings.CutSuffix(name, "*")
		for _, fn := range defined {
			if fn == name || (isPrefix && strings.HasPrefix(fn, prefix)) {
				return true
			}
		}
		return false
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, name := range testName.FindAllString(span, -1) {
					if !exists(name) {
						t.Errorf("%s:%d: cites %s, which no func in the tree defines", doc, n+1, name)
					}
				}
			}
		}
	}
}

// TestEveryExampleHasTest checks that every example program under
// examples/ ships a _test.go file defining at least one Test func, so an
// example cannot rot into a program nobody runs.
func TestEveryExampleHasTest(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		n++
		tests, err := filepath.Glob(filepath.Join("examples", d.Name(), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, path := range tests {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFuncDef.FindAllStringSubmatch(string(data), -1) {
				found = found || strings.HasPrefix(m[1], "Test")
			}
		}
		if !found {
			t.Errorf("examples/%s has no Test func in a _test.go file", d.Name())
		}
	}
	if n == 0 {
		t.Fatal("no example programs found under examples/")
	}
}

// metricRow matches a docs/observability.md catalog row of a registry
// metric: counters, gauges and histograms (spans are named by their dotted
// span name, so they are not literals in the source).
var metricRow = regexp.MustCompile("^\\| `([a-z0-9_<>]+)` \\| (?:counter|gauge|histogram)(?:, lazy)? \\|")

// sourceMetricNames collects every string literal in the program's non-test
// Go source (internal/ and cmd/), plus a pattern for every concatenation
// that starts with a literal: "serve_"+name+"_seconds" becomes
// ^serve_[a-z0-9]+_seconds$, so a catalog row that spells out one of the
// names a loop registers still finds its source.
func sourceMetricNames(t *testing.T) (map[string]bool, []*regexp.Regexp) {
	t.Helper()
	literals := map[string]bool{}
	var patterns []*regexp.Regexp
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		if s, ok := stringLit(n); ok {
			literals[s] = true
		}
		add, ok := n.(*ast.BinaryExpr)
		if !ok || add.Op != token.ADD {
			return true
		}
		var re strings.Builder
		ledByLiteral := false
		for i, part := range flattenAdd(add, nil) {
			ast.Inspect(part, visit)
			if s, ok := stringLit(part); ok {
				ledByLiteral = ledByLiteral || i == 0
				re.WriteString(regexp.QuoteMeta(s))
			} else {
				re.WriteString("[a-z0-9]+")
			}
		}
		if ledByLiteral {
			patterns = append(patterns, regexp.MustCompile("^"+re.String()+"$"))
		}
		return false
	}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, visit)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return literals, patterns
}

// stringLit returns the value of a string literal node.
func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// flattenAdd appends the operands of a chain of + expressions, in order.
func flattenAdd(e ast.Expr, out []ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.ADD {
		return flattenAdd(b.Y, flattenAdd(b.X, out))
	}
	return append(out, e)
}

// TestDocMetricsExist checks that every counter, gauge and histogram the
// docs/observability.md catalog names is registered somewhere in the
// program: the name is a string literal of non-test source, or matches a
// literal-led concatenation; a `<placeholder>` row is checked by its
// literal prefix. A deleted metric cannot leave its catalog row behind.
func TestDocMetricsExist(t *testing.T) {
	literals, patterns := sourceMetricNames(t)
	data, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for n, line := range strings.Split(string(data), "\n") {
		m := metricRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		name := m[1]
		if prefix, _, ok := strings.Cut(name, "<"); ok {
			if !literals[prefix] {
				t.Errorf("docs/observability.md:%d: catalogs %s, but no source literal is its prefix %q", n+1, name, prefix)
			}
			continue
		}
		found := literals[name]
		for _, re := range patterns {
			found = found || re.MatchString(name)
		}
		if !found {
			t.Errorf("docs/observability.md:%d: catalogs %s, which no non-test source registers", n+1, name)
		}
	}
	if rows == 0 {
		t.Fatal("no metric rows found in docs/observability.md")
	}
}
