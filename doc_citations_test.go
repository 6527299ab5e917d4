package xpushstream

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocCitations keeps DESIGN.md, README.md and EXPERIMENTS.md honest about
// the code. In their inline code spans, every repo path must exist, and every
// `X.Y` where X is one of the repo's packages or declared types must name
// something X declares: a function, method, field, type, const or var. A change that
// deletes or renames code then cannot leave a stale citation behind.
func TestDocCitations(t *testing.T) {
	idx := indexDecls(t)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		for _, sp := range codeSpans(t, doc) {
			for _, problem := range idx.check(sp.text) {
				t.Errorf("%s:%d: `%s`: %s", doc, sp.line, sp.text, problem)
			}
		}
	}
}

// declIndex is what the repo's non-test Go declares.
type declIndex struct {
	pkgs  map[string]map[string]bool // package name -> top-level names
	types map[string]map[string]bool // type name -> methods and fields
	top   map[string]bool            // entries of the repo root
}

func indexDecls(t *testing.T) *declIndex {
	t.Helper()
	idx := &declIndex{
		pkgs:  map[string]map[string]bool{},
		types: map[string]map[string]bool{},
		top:   map[string]bool{},
	}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		idx.top[e.Name()] = true
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(idx.pkgs, pkg, decl.Name.Name)
				} else {
					add(idx.types, recvType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(idx.pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(idx.pkgs, pkg, spec.Name.Name)
						for _, m := range members(spec.Type) {
							add(idx.types, spec.Name.Name, m)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// recvType names a method receiver's type: T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// members lists a struct's fields (an embedded field by its type's name) or
// an interface's methods.
func members(e ast.Expr) []string {
	var fields *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel.Name)
			} else if name := recvType(f.Type); name != "" {
				out = append(out, name)
			}
		}
	}
	return out
}

// codeSpan is one inline code span of a Markdown file.
type codeSpan struct {
	line int
	text string
}

// codeSpans returns the inline code spans of a Markdown file, outside fenced
// blocks.
func codeSpans(t *testing.T, path string) []codeSpan {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []codeSpan
	fenced := false
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		parts := strings.Split(line, "`")
		for i := 1; i < len(parts)-1; i += 2 {
			out = append(out, codeSpan{n, parts[i]})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

var (
	// selectorChain matches X.Y, X.Y.Z, ... with Go identifiers.
	selectorChain = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+`)
	// lineSuffix is a file:line or file:line-line reference.
	lineSuffix = regexp.MustCompile(`:[0-9][0-9,–-]*$`)
	// fileExt marks the last element of a chain that is a file name.
	fileExt = map[string]bool{"go": true, "md": true, "sh": true, "json": true, "yml": true, "txt": true, "mod": true}
	// sourceExt marks a bare file name as the repo's own: a bare `out.json`
	// names what a command writes.
	sourceExt = map[string]bool{".go": true, ".md": true, ".sh": true}
)

// check returns what is wrong with one code span's citations.
func (idx *declIndex) check(text string) []string {
	var problems []string
	for _, word := range strings.Fields(text) {
		if p := idx.checkPath(word); p != "" {
			problems = append(problems, p)
		}
	}
	for _, loc := range selectorChain.FindAllStringIndex(text, -1) {
		// A chain inside a path or a flag (`server/publish.go`, `./wal`,
		// `-trace.out`) is not a selector.
		if loc[0] > 0 && strings.ContainsRune("/.-", rune(text[loc[0]-1])) {
			continue
		}
		if loc[1] < len(text) && text[loc[1]] == '/' {
			continue
		}
		ids := strings.Split(text[loc[0]:loc[1]], ".")
		if fileExt[ids[len(ids)-1]] {
			continue
		}
		for i := 0; i+1 < len(ids); i++ {
			x, y := ids[i], ids[i+1]
			if strings.Contains(y, "_") {
				break // a metric or span name (`trace.overhead_pct`), not Go
			}
			_, isPkg := idx.pkgs[x]
			_, isType := idx.types[x]
			if !isPkg && !isType {
				continue
			}
			if !idx.pkgs[x][y] && !idx.types[x][y] {
				problems = append(problems, x+" declares no "+y)
			}
		}
	}
	return problems
}

// checkPath reports a word that names a repo path which does not exist: a
// relative path whose first element is a repo-root entry, or a bare source
// file name, which names a file at the root (cite `server/publish.go`, not
// `publish.go`).
func (idx *declIndex) checkPath(word string) string {
	word = strings.TrimSuffix(lineSuffix.ReplaceAllString(word, ""), "/...")
	word = strings.TrimPrefix(strings.TrimSuffix(word, "/"), "./")
	if word == "" || strings.ContainsAny(word, "*{}<>$=") || strings.HasPrefix(word, "/") {
		return ""
	}
	if first, _, ok := strings.Cut(word, "/"); ok {
		if !idx.top[first] {
			return ""
		}
		if _, err := os.Stat(word); err != nil {
			return "no such path " + word
		}
		return ""
	}
	if ext := filepath.Ext(word); sourceExt[ext] && !idx.top[word] {
		return "no such file " + word
	}
	return ""
}
