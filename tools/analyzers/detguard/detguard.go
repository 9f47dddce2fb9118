// Package detguard is a repository-local vet pass enforcing the
// engine's determinism contract.
//
// The simulator's load-bearing promise is that virtual results are
// byte-identical across hosts, worker counts and repeat runs — every
// preset of the differential matrix (sadiff, pardiff, jitdiff, ...)
// asserts it. Three host-side constructs can silently break that promise when
// they leak into result-bearing code:
//
//   - map iteration: Go randomizes range order over maps, so a map
//     walk whose body emits, appends or merges in iteration order
//     produces run-dependent results;
//   - time.Now: host wall-clock time must never feed a virtual
//     quantity — it is only acceptable inside the telemetry idiom,
//     where a nil guard on the metrics/histogram sink dominates the
//     call and the value feeds host-side observability alone;
//   - math/rand: host randomness has no place in the engine packages
//     at all (deterministic pseudo-randomness used by workloads is
//     generated from fixed seeds in the guest, not the host).
//
// detguard parses and type-checks a package (stdlib go/types with the
// source importer — no external dependencies, same machinery as
// obsguard) and reports:
//
//   - every `for ... range m` where m is map-typed, unless the line
//     (or the line above) carries a `//detguard:ok` comment asserting
//     the body is iteration-order-insensitive (commutative merge,
//     key-sorted output, or set membership only);
//   - every call to time.Now that is not dominated by a nil check
//     (`if x != nil { ... }` or an earlier `if x == nil { return }`)
//     — the telemetry-gating idiom — and not annotated `//detguard:ok`;
//   - every import of math/rand or math/rand/v2, unconditionally.
//
// The annotation deliberately names the reviewer's obligation: writing
// `//detguard:ok` asserts you checked the site cannot influence
// virtual-cycle results or any merged/serialized output ordering.
// The engine packages carry 13 audited annotations, each with the
// reason its site is order-free.
package detguard

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one determinism hazard.
type Finding struct {
	Pos token.Position
	// Kind is the hazard class: "map-range", "time-now" or "math-rand".
	Kind string
	// Detail names the offending expression (the ranged map, the
	// imported path).
	Detail string
}

func (f Finding) String() string {
	switch f.Kind {
	case "map-range":
		return fmt.Sprintf("%s: range over map %s without a detguard:ok annotation (iteration order is host-random)",
			f.Pos, f.Detail)
	case "time-now":
		return fmt.Sprintf("%s: time.Now outside the nil-guarded telemetry idiom (host wall clock must not feed results)",
			f.Pos)
	default:
		return fmt.Sprintf("%s: import of %s (host randomness is banned in engine packages)",
			f.Pos, f.Detail)
	}
}

// CheckDir runs the analysis over the non-test Go files of one package
// directory. Type-checking errors in the target package are tolerated
// (the analysis runs on whatever resolved).
func CheckDir(dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		var files []*ast.File
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic type-check order
		for _, name := range names {
			files = append(files, pkg.Files[name])
		}
		fs, err := checkFiles(fset, pkg.Name, files)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

func checkFiles(fset *token.FileSet, pkgName string, files []*ast.File) ([]Finding, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		// The target package may reference build-tagged or generated
		// identifiers we did not load; keep going and analyze whatever
		// typed expressions resolved.
		Error: func(error) {},
	}
	_, _ = conf.Check(pkgName, fset, files, info)

	var findings []Finding
	for _, file := range files {
		okLines := okLines(fset, file)
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				findings = append(findings, Finding{
					Pos: fset.Position(imp.Pos()), Kind: "math-rand", Detail: path,
				})
			}
		}
		v := &visitor{fset: fset, info: info, ok: okLines}
		ast.Walk(v, file)
		findings = append(findings, v.findings...)
	}
	return findings, nil
}

// okLines collects the line numbers suppressed by detguard:ok comments
// (the comment's own line and the one after it, so both same-line and
// line-above placements work).
func okLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "detguard:ok") {
				ln := fset.Position(c.Pos()).Line
				lines[ln] = true
				lines[ln+1] = true
			}
		}
	}
	return lines
}

// visitor walks one file keeping the ancestor stack, so each time.Now
// site can search its enclosing ifs and blocks for a telemetry guard.
type visitor struct {
	fset     *token.FileSet
	info     *types.Info
	ok       map[int]bool
	stack    []ast.Node
	findings []Finding
}

func (v *visitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		v.stack = v.stack[:len(v.stack)-1]
		return nil
	}
	switch node := n.(type) {
	case *ast.RangeStmt:
		v.checkRange(node)
	case *ast.CallExpr:
		v.checkTimeNow(node)
	}
	v.stack = append(v.stack, n)
	return v
}

func (v *visitor) checkRange(r *ast.RangeStmt) {
	tv, ok := v.info.Types[r.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pos := v.fset.Position(r.Pos())
	if v.ok[pos.Line] {
		return
	}
	v.findings = append(v.findings, Finding{
		Pos: pos, Kind: "map-range", Detail: types.ExprString(r.X),
	})
}

func (v *visitor) checkTimeNow(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Now" {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != "time" {
		return
	}
	// Confirm it is the time package, not a variable named "time", when
	// type info resolved; fall back to the textual match otherwise.
	if tv, ok := v.info.Types[sel.X]; ok && tv.Type != nil {
		return // a value named time — not the package
	}
	pos := v.fset.Position(call.Pos())
	if v.ok[pos.Line] || v.nilGuarded(call) {
		return
	}
	v.findings = append(v.findings, Finding{Pos: pos, Kind: "time-now"})
}

// nilGuarded reports whether the call is dominated by a nil check of
// any expression — the telemetry-gating idiom (`if e.metrics != nil {
// t0 = time.Now() }` or an earlier `if m == nil { return }`).
func (v *visitor) nilGuarded(call *ast.CallExpr) bool {
	for i := len(v.stack) - 1; i >= 0; i-- {
		switch n := v.stack[i].(type) {
		case *ast.IfStmt:
			if within(n.Body, call) && condHasNonNil(n.Cond) {
				return true
			}
		case *ast.BlockStmt:
			if blockBailsOutBefore(n, call) {
				return true
			}
		}
	}
	return false
}

// within reports whether node pos-encloses x.
func within(node ast.Node, x ast.Node) bool {
	return node != nil && node.Pos() <= x.Pos() && x.End() <= node.End()
}

// condHasNonNil: the condition contains a `x != nil` conjunct (parens
// and && handled; an if-with-init `if m := ...; m != nil` also lands
// here).
func condHasNonNil(cond ast.Expr) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condHasNonNil(c.X)
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			return condHasNonNil(c.X) || condHasNonNil(c.Y)
		case token.NEQ:
			return isNil(c.X) || isNil(c.Y)
		}
	}
	return false
}

// condHasNil: the condition contains a `x == nil` disjunct.
func condHasNil(cond ast.Expr) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condHasNil(c.X)
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LOR:
			return condHasNil(c.X) || condHasNil(c.Y)
		case token.EQL:
			return isNil(c.X) || isNil(c.Y)
		}
	}
	return false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// blockBailsOutBefore reports whether block contains, before the call,
// an `if x == nil { <terminating> }` statement — the early-return guard
// idiom.
func blockBailsOutBefore(block *ast.BlockStmt, call *ast.CallExpr) bool {
	for _, stmt := range block.List {
		if stmt.End() >= call.Pos() {
			return false
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || ifs.Else != nil || len(ifs.Body.List) == 0 {
			continue
		}
		if condHasNil(ifs.Cond) && terminates(ifs.Body.List[len(ifs.Body.List)-1]) {
			return true
		}
	}
	return false
}

// terminates reports whether stmt unconditionally leaves the enclosing
// block (the guard body really bails out).
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

// CheckDirs runs CheckDir over several package directories (non-
// recursive), concatenating findings.
func CheckDirs(dirs []string) ([]Finding, error) {
	var all []Finding
	for _, d := range dirs {
		fs, err := CheckDir(filepath.Clean(d))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d, err)
		}
		all = append(all, fs...)
	}
	return all, nil
}
