package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// EventSync guards the observability vocabulary across artifacts that the
// compiler cannot connect: the obs event-kind constants, their string
// names, and the markdown event tables. Skew here is silent — an
// undocumented kind ships, or a doc table describes events that no longer
// exist. The analyzer runs on internal/obs (or any package annotated
// //distlint:events) and checks:
//
//   - every Kind* constant has a non-empty entry in the kindNames array;
//   - every kind name appears in each markdown event table (a table whose
//     header's first column is `kind`) in the package's doc set — the
//     package directory's own README.md/DESIGN.md if present, else the
//     module root's;
//   - every backticked name in those tables is a live kind (stale rows);
//   - where a table has a `level` column, each row reads `kick` for the
//     kinds the Kind.EALevel method excludes from collection and `EA` for
//     the rest.
//
// The counters need no check of their own: obs.CounterSnapshot is their
// one declaration, and a golden test pins its JSON.
var EventSync = &Analyzer{
	Name: "eventsync",
	Doc:  "obs event kinds, their names and the markdown event tables must agree",
	Run:  runEventSync,
}

func inEventSyncScope(pkg *Package) bool {
	return strings.HasSuffix(pkg.Path, "internal/obs") || pkg.HasDirective("events")
}

func runEventSync(pass *Pass) {
	pkg := pass.Pkg
	if !inEventSyncScope(pkg) {
		return
	}
	kinds, kindsPos := kindConstants(pkg)
	names, namesPos := kindNameEntries(pkg)
	if kinds != nil && names != nil {
		for i, k := range kinds {
			if i >= len(names) || names[i] == "" {
				pass.Reportf(kindsPos[i], "kind constant %s has no entry in the kindNames array; its String() would be empty or out of range", k)
			}
		}
		for i := len(kinds); i < len(names); i++ {
			pass.Reportf(namesPos, "kindNames has %d entries but only %d Kind constants; entry %q is orphaned", len(names), len(kinds), names[i])
		}
	}
	if names != nil {
		checkEventDocs(pass, pkg, names, namesPos, kickLevelNames(pkg, kinds, names))
	}
}

// kickLevelNames returns the names of the kinds the Kind.EALevel method
// excludes — the constants of its switch cases that return false — or nil
// when the package has no such method.
func kickLevelNames(pkg *Package, kinds, names []string) map[string]bool {
	index := make(map[string]int, len(kinds))
	for i, k := range kinds {
		index[k] = i
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "EALevel" || fd.Body == nil {
				continue
			}
			kick := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok || !returnsFalse(cc.Body) {
					return true
				}
				for _, e := range cc.List {
					if id, ok := e.(*ast.Ident); ok {
						if i, ok := index[id.Name]; ok && i < len(names) {
							kick[names[i]] = true
						}
					}
				}
				return true
			})
			return kick
		}
	}
	return nil
}

// returnsFalse reports whether a case body ends in `return false`.
func returnsFalse(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	ret, ok := body[len(body)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	id, ok := ret.Results[0].(*ast.Ident)
	return ok && id.Name == "false"
}

// kindConstants returns the ordered Kind* constant names of the package's
// iota block (the unexported length sentinel is excluded).
func kindConstants(pkg *Package) ([]string, []token.Pos) {
	var kinds []string
	var poss []token.Pos
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if strings.HasPrefix(name.Name, "Kind") {
						kinds = append(kinds, name.Name)
						poss = append(poss, name.Pos())
					}
				}
			}
		}
	}
	if len(kinds) == 0 {
		return nil, nil
	}
	return kinds, poss
}

// kindNameEntries returns the string elements of the kindNames composite
// literal and its position, or nil when the package has none.
func kindNameEntries(pkg *Package) ([]string, token.Pos) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "kindNames" || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					var names []string
					for _, elt := range lit.Elts {
						if bl, ok := elt.(*ast.BasicLit); ok && bl.Kind == token.STRING {
							names = append(names, strings.Trim(bl.Value, "`\""))
						}
					}
					return names, lit.Pos()
				}
			}
		}
	}
	return nil, token.NoPos
}

// checkEventDocs diffs the kind vocabulary against every markdown event
// table in the package's doc set; kick, when non-nil, names the kick-level
// kinds a level column must mark.
func checkEventDocs(pass *Pass, pkg *Package, names []string, at token.Pos, kick map[string]bool) {
	docs := eventDocFiles(pkg.Dir)
	if len(docs) == 0 {
		pass.Reportf(at, "no README.md/DESIGN.md found for the event-kind vocabulary; document the kinds in an event table")
		return
	}
	live := make(map[string]bool, len(names))
	for _, n := range names {
		live[n] = true
	}
	sawTable := false
	for _, doc := range docs {
		rows, err := parseEventTable(doc)
		if err != nil {
			pass.Reportf(at, "reading event table: %v", err)
			continue
		}
		if rows == nil {
			continue // this doc has no kind table
		}
		sawTable = true
		documented := make(map[string]bool)
		for _, row := range rows {
			for _, name := range row.kinds {
				documented[name] = true
				if !live[name] {
					pass.Reportf(at, "stale event-table row in %s:%d: %q is not a kind the package emits", filepath.Base(doc), row.line, name)
					continue
				}
				if want := levelOf(kick, name); kick != nil && row.level != "" && row.level != want {
					pass.Reportf(at, "event-table row in %s:%d gives %q level %q; Kind.EALevel makes it %q", filepath.Base(doc), row.line, name, row.level, want)
				}
			}
		}
		for _, n := range names {
			if n != "" && !documented[n] {
				pass.Reportf(at, "kind %q is missing from the event table in %s; add a row describing it", n, filepath.Base(doc))
			}
		}
	}
	if !sawTable {
		pass.Reportf(at, "no event table (header starting `| kind |`) found in %s; the kind vocabulary must be documented", strings.Join(baseNames(docs), ", "))
	}
}

// eventDocFiles resolves the doc set: README.md/DESIGN.md next to the
// package if present (fixtures), else at the module root.
func eventDocFiles(dir string) []string {
	local := docCandidates(dir)
	if len(local) > 0 {
		return local
	}
	root := dir
	for i := 0; i < 12; i++ {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			return docCandidates(root)
		}
		parent := filepath.Dir(root)
		if parent == root {
			break
		}
		root = parent
	}
	return nil
}

func docCandidates(dir string) []string {
	var out []string
	for _, name := range []string{"README.md", "DESIGN.md"} {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			out = append(out, p)
		}
	}
	return out
}

func baseNames(paths []string) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = filepath.Base(p)
	}
	return out
}

// levelOf is the level-column entry for a kind: "kick" for the kinds
// EALevel excludes from collection, "EA" for the rest.
func levelOf(kick map[string]bool, name string) string {
	if kick[name] {
		return "kick"
	}
	return "EA"
}

type eventRow struct {
	line  int
	kinds []string // backticked names in the row's first cell
	level string   // the row's level cell, "" when the table has none
}

// parseEventTable extracts the rows of the first markdown table whose
// header's first cell is `kind`, with their `level` cell when the header
// has a level column. It returns nil rows when the file has no such table.
func parseEventTable(path string) ([]eventRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", filepath.Base(path), err)
	}
	lines := strings.Split(string(data), "\n")
	var rows []eventRow
	inTable := false
	levelCol := -1
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "|") {
			if inTable {
				break
			}
			continue
		}
		cells := splitTableRow(trimmed)
		if len(cells) == 0 {
			continue
		}
		first := strings.TrimSpace(cells[0])
		if !inTable {
			if first == "kind" {
				inTable = true
				rows = []eventRow{}
				for j, c := range cells {
					if strings.TrimSpace(c) == "level" {
						levelCol = j
					}
				}
			}
			continue
		}
		if strings.HasPrefix(first, "---") || strings.HasPrefix(first, ":-") {
			continue // separator row
		}
		row := eventRow{line: i + 1, kinds: backticked(first)}
		if levelCol > 0 && levelCol < len(cells) {
			row.level = strings.TrimSpace(cells[levelCol])
		}
		if len(row.kinds) > 0 {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func splitTableRow(line string) []string {
	line = strings.Trim(line, "|")
	return strings.Split(line, "|")
}

// backticked returns the `quoted` tokens in s, in order.
func backticked(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '`')
		if start < 0 {
			return out
		}
		s = s[start+1:]
		end := strings.IndexByte(s, '`')
		if end < 0 {
			return out
		}
		out = append(out, s[:end])
		s = s[end+1:]
	}
}
