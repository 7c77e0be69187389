package depscope

// Documentation and dead-code drift checks, wired into `make docs-check`
// (and through it into `make verify`). Eight invariants:
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
//     names is registered by non-test source;
//   - every package under internal/ has a row in DESIGN.md's system
//     inventory, and every package a row names exists;
//   - every package-level declaration under internal/ is referenced by
//     non-test code of either module (the program or bench/), or has a row
//     with its reason in orphanAllowlist.
//
// All walk the committed sources, so they need no network and no build
// artifacts (the orphan check reads the standard library's export data
// through the go command); a doc edit that invents a flag or breaks a link
// fails go test, and so does code that nothing runs.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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

// inventoryPackage matches a package path in DESIGN.md's inventory table.
var inventoryPackage = regexp.MustCompile("`(internal/[a-z0-9]+)`")

// TestDocPackageInventory checks DESIGN.md §3 against the tree: every
// directory under internal/ is named in the Package column of some row, and
// every internal/ package a row names is a directory.
func TestDocPackageInventory(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inTable = strings.HasPrefix(line, "## 3. System inventory")
			continue
		}
		cells := strings.Split(line, "|")
		if !inTable || len(cells) < 5 {
			continue
		}
		for _, m := range inventoryPackage.FindAllStringSubmatch(cells[3], -1) {
			named[m[1]] = true
		}
	}
	if len(named) == 0 {
		t.Fatal("DESIGN.md: no package rows found under \"## 3. System inventory\"")
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if pkg := "internal/" + d.Name(); d.IsDir() && !named[pkg] {
			t.Errorf("%s has no row in DESIGN.md §3", pkg)
		}
	}
	for pkg := range named {
		if fi, err := os.Stat(pkg); err != nil || !fi.IsDir() {
			t.Errorf("DESIGN.md §3 names %s, which is not a package", pkg)
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

// orphanModules maps each module's path to its directory, relative to the
// repository root: the benchmark harness, and the program it imports. The
// longer path comes first, so an import under depscope/bench matches it.
var orphanModules = []struct{ path, dir string }{
	{"depscope/bench", "bench"},
	{"depscope", "."},
}

// The reasons a declaration under internal/ may stay with no non-test
// reference. "API for external clients" is none of them: nothing outside
// the module can import internal/.
const (
	reasonTestHook = "a test hook, documented as one"
	reasonColumnar = "the columnar store, reached by bench/ and TestGateCompactBytesPerSite; retired with ROADMAP item 2"
)

// orphanAllowlist names the declarations under internal/ that no non-test
// code references but that stay, each with its reason. A key is the
// package directory, the receiver type of a method, and the name, joined
// by dots.
var orphanAllowlist = map[string]string{
	"internal/resolver.WithClock":           reasonTestHook,
	"internal/resolver.Resolver.FlushCache": reasonTestHook,
	"internal/serve.WithBackoff":            reasonTestHook,
	"internal/core.CompactGraph.NSites":     reasonColumnar,
	"internal/core.CompactGraph.Bytes":      reasonColumnar,
}

// reflectedInterfaces are the standard-library interfaces whose methods the
// program reaches through code it does not spell out: fmt's formatting,
// encoding/json, sort and container/heap, and net/http's server.
var reflectedInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"net/http", "Handler"},
	{"net/http", "ResponseWriter"},
}

// sourceImporter type-checks the non-test files of the packages in
// orphanModules from source, each once, into one types.Info; the standard
// library comes from the compiler's export data.
type sourceImporter struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[*ast.File]*types.Package
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	dir := ""
	for _, m := range orphanModules {
		if rest, ok := strings.CutPrefix(path, m.path); ok && (rest == "" || rest[0] == '/') {
			dir = filepath.Join(m.dir, filepath.FromSlash(rest))
			break
		}
	}
	if dir == "" {
		return im.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: im}).Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	for _, f := range files {
		im.files[f] = pkg
	}
	return pkg, nil
}

// checkModules type-checks the non-test files of every package in
// orphanModules.
func checkModules(t *testing.T) *sourceImporter {
	t.Helper()
	fset := token.NewFileSet()
	im := &sourceImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[*ast.File]*types.Package{},
	}
	for _, m := range orphanModules {
		err := filepath.WalkDir(m.dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != m.dir && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(m.dir, path)
			if err != nil {
				return err
			}
			_, err = im.Import(strings.TrimSuffix(m.path+"/"+filepath.ToSlash(rel), "/."))
			if none := (*build.NoGoError)(nil); err == nil || errors.As(err, &none) {
				return nil
			}
			return fmt.Errorf("type-check %s: %w", path, err)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return im
}

// orphanKey spells a package-level declaration as orphanAllowlist keys it:
// "internal/resolver.WithClock", "internal/core.Graph.Site".
func orphanKey(obj types.Object) string {
	key := strings.TrimPrefix(obj.Pkg().Path(), "depscope/") + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			key += t.(*types.Named).Obj().Name() + "."
		}
	}
	return key + obj.Name()
}

// origin maps a method or function of an instantiated generic to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// TestNoOrphanDeclarations type-checks the non-test files of every package
// in both modules and checks that every package-level func, method, type,
// var and const under internal/ is referenced by non-test code outside its
// own declaration; a method's receiver is not a use of its type. A method
// also counts as used when its receiver type implements an interface that
// has the method and that non-test code names, or one of
// reflectedInterfaces. Anything else is dead code: delete it, or give it a
// row in orphanAllowlist. A row whose declaration is gone, is referenced
// again, or gives a reason the list does not accept fails too.
func TestNoOrphanDeclarations(t *testing.T) {
	im := checkModules(t)
	info := im.info

	// decls holds the source range of every package-level declaration
	// under internal/; receiverIdents, every identifier in a method's
	// receiver; named, every named type the modules declare.
	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{}
	receiverIdents := map[*ast.Ident]bool{}
	var named []*types.Named
	declare := func(internal bool, id *ast.Ident, n ast.Node) {
		if internal && id.Name != "_" && id.Name != "init" {
			decls[info.Defs[id]] = span{n.Pos(), n.End()}
		}
	}
	for f, pkg := range im.files {
		internal := strings.HasPrefix(pkg.Path(), "depscope/internal/")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receiverIdents[id] = true
						}
						return true
					})
				}
				declare(internal, d.Name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if n, ok := info.Defs[s.Name].Type().(*types.Named); ok {
							named = append(named, n)
						}
						declare(internal, s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(internal, id, s)
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if sp, ok := decls[obj]; ok && (id.Pos() < sp.pos || id.Pos() >= sp.end) && !receiverIdents[id] {
			used[obj] = true
		}
	}

	// A method reached through an interface: every interface type
	// non-test code names, and the reflected ones.
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, r := range reflectedInterfaces {
		pkg, err := im.Import(r.pkg)
		if err != nil {
			t.Fatal(err)
		}
		addIface(pkg.Scope().Lookup(r.name).Type())
	}
	for _, n := range named {
		if n.TypeParams().Len() > 0 || types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	declared := map[string]types.Object{}
	var orphans []string
	for obj, sp := range decls {
		key := orphanKey(obj)
		declared[key] = obj
		if !used[obj] && orphanAllowlist[key] == "" {
			orphans = append(orphans, fmt.Sprintf("%s: %s", im.fset.Position(sp.pos), key))
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s: no non-test code references it; delete it, or give it a row in orphanAllowlist", o)
	}
	for key, reason := range orphanAllowlist {
		switch obj, ok := declared[key]; {
		case reason != reasonTestHook && reason != reasonColumnar:
			t.Errorf("orphanAllowlist gives %s the reason %q, which is not one of the reasons it accepts", key, reason)
		case !ok:
			t.Errorf("orphanAllowlist names %s, which is not declared; delete its row", key)
		case used[obj]:
			t.Errorf("orphanAllowlist names %s, which non-test code references; delete its row", key)
		}
	}
}
