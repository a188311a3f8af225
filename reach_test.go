package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow names the exported declarations under internal/ that no
// shipped code uses and that stay anyway. Keys are "pkg.Name" or
// "pkg.Recv.Name"; a bare "pkg" covers the whole package. At most 8.
var reachAllow = map[string]string{
	"obs.ReadRunLog":  "the run-log artifact format's reader; every -trace and flight-dump test parses through it",
	"hunt.LoadCorpus": "SaveCorpus's inverse: reads testdata/corpus for the tier-1 replay gate",

	"qdisc.UserIsolation.SetUserRate":   "per-user plan changes; FuzzUserIsolationSchedule's oracle drives it (PR 16)",
	"qdisc.UserIsolation.SetUserWeight": "per-user plan changes; FuzzUserIsolationSchedule's oracle drives it (PR 16)",
	"qdisc.UserIsolation.ActiveUsers":   "read accessor over live state (parked + eligible users) that tests observe",

	"hunt.Genome.Validate": "the oracle the genome, hunt and corpus tests hold every mutated, crossed and loaded genome to",
	"spool.Writer.Sync":    "a durability flush: forces the active file to stable storage between Append's periodic fsyncs",
	"stats.Series.Rate":    "the reference the throughput-window tests compare Flow.Throughput against",
}

// stdIfaces are the standard-library interfaces whose methods the
// standard library calls (fmt, encoding, sort, container/heap, io,
// net/http, flag, math/rand's Rand on its Source), so no caller in this
// tree has to spell them.
var stdIfaces = [][2]string{
	{"fmt", "Stringer"}, {"fmt", "Formatter"}, {"fmt", "GoStringer"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"encoding", "BinaryMarshaler"}, {"encoding", "BinaryUnmarshaler"},
	{"sort", "Interface"}, {"container/heap", "Interface"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"net/http", "Handler"}, {"flag", "Value"},
	{"math/rand", "Source"}, {"math/rand", "Source64"},
}

// TestExportedSurfaceIsReachable keeps test-only mechanisms from
// growing back: every exported top-level func, method or type declared
// in a non-test file under internal/ must be used by at least one
// non-test .go file under cmd/, internal/ or ledger/ other than at its
// own declaration or as a method's receiver type. Uses are resolved by
// go/types, so a method is not kept alive by a same-named method of
// another type. Exempt by rule: read accessors (no arguments, a body
// of one return statement), and methods of a type that
// implements an interface whose same-named method is called — a
// standard-library interface the standard library calls, or any
// interface, interface literal or type-parameter constraint a shipped
// call goes through.
func TestExportedSurfaceIsReachable(t *testing.T) {
	fset := token.NewFileSet()
	files := parseShipped(t, fset)
	im := typeCheckShipped(t, fset, files)
	info := im.info

	skip := map[token.Pos]bool{} // receiver type names do not count as a use
	var decls []types.Object
	for _, sf := range files {
		if sf.root == "internal" {
			decls = append(decls, exportedDecls(sf.f, info, skip)...)
		}
	}
	if len(decls) < 200 {
		t.Fatalf("scanned only %d exported declarations; run from the repo root", len(decls))
	}
	used := map[types.Object]bool{}
	var called []*types.Func // interface methods some shipped code calls
	for id, obj := range info.Uses {
		if skip[id.Pos()] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, fn)
			}
		}
		used[obj] = true
	}
	for _, p := range stdIfaces {
		pkg, err := im.Import(p[0])
		if err != nil {
			t.Fatal(err)
		}
		iface := pkg.Scope().Lookup(p[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			called = append(called, iface.Method(i))
		}
	}

	var dead []string
	excused := map[string]bool{}
	for _, obj := range decls {
		if used[obj] || viaInterface(obj, called) {
			continue
		}
		key := declKey(obj)
		pkg, _, _ := strings.Cut(key, ".")
		switch {
		case reachAllow[key] != "":
			excused[key] = true
		case reachAllow[pkg] != "":
			excused[pkg] = true
		default:
			dead = append(dead, key+"  ("+fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported declarations under internal/ are used by no shipped code "+
			"(delete them, or add a reasoned reachAllow entry):\n  %s", len(dead), strings.Join(dead, "\n  "))
	}
	if len(reachAllow) > 8 {
		t.Errorf("reachAllow has %d entries, cap is 8", len(reachAllow))
	}
	for key := range reachAllow {
		if !excused[key] {
			t.Errorf("reachAllow entry %q excuses nothing any more; remove it", key)
		}
	}
}

type shippedFile struct {
	root, dir string
	f         *ast.File
}

// parseShipped parses every non-test .go file under cmd/, internal/
// and ledger/.
func parseShipped(t *testing.T, fset *token.FileSet) []shippedFile {
	t.Helper()
	var out []shippedFile
	for _, root := range []string{"cmd", "internal", "ledger"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			out = append(out, shippedFile{root, filepath.Dir(path), f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// typeCheckShipped type-checks the shipped packages, each against the
// others and against the standard library's export data, and returns
// the importer holding what the checker resolved.
func typeCheckShipped(t *testing.T, fset *token.FileSet, files []shippedFile) *shippedImporter {
	t.Helper()
	im := &shippedImporter{
		fset: fset,
		std:  importer.Default(),
		pkgs: map[string][]*ast.File{},
		done: map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	var paths []string
	for _, sf := range files {
		path := "repro/" + filepath.ToSlash(sf.dir)
		if im.pkgs[path] == nil {
			paths = append(paths, path)
		}
		im.pkgs[path] = append(im.pkgs[path], sf.f)
	}
	for _, path := range paths {
		if _, err := im.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return im
}

// shippedImporter checks a package of this module from its parsed
// files the first time something imports it; every other path comes
// from the standard library.
type shippedImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string][]*ast.File
	done map[string]*types.Package
	info *types.Info
}

func (im *shippedImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.done[path]; ok {
		return p, nil
	}
	files, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, im.info)
	im.done[path] = p
	return p, err
}

// exportedDecls lists f's exported funcs, methods and types that no
// rule exempts, and records in skip the positions of method receiver
// type names.
func exportedDecls(f *ast.File, info *types.Info, skip map[token.Pos]bool) []types.Object {
	var out []types.Object
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				skip[recvIdent(d.Recv.List[0].Type).Pos()] = true
				if accessor(d) {
					continue
				}
			}
			if d.Name.IsExported() {
				out = append(out, info.Defs[d.Name])
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, s := range d.Specs {
				if ts := s.(*ast.TypeSpec); ts.Name.IsExported() {
					out = append(out, info.Defs[ts.Name])
				}
			}
		}
	}
	return out
}

// viaInterface reports whether obj is a method of a type that
// implements an interface whose method of the same name is called.
func viaInterface(obj types.Object, called []*types.Func) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, m := range called {
		if m.Name() != fn.Name() {
			continue
		}
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// declKey is "pkg.Name" for a func or type and "pkg.Recv.Name" for a
// method.
func declKey(obj types.Object) string {
	key := obj.Pkg().Name() + "."
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

func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e.(*ast.Ident)
		}
	}
}

// accessor reports whether d takes no arguments and its body is one
// return statement: a read accessor tests observe.
func accessor(d *ast.FuncDecl) bool {
	if d.Type.Params.NumFields() != 0 || d.Body == nil || len(d.Body.List) != 1 {
		return false
	}
	_, ok := d.Body.List[0].(*ast.ReturnStmt)
	return ok
}

// fieldAllow names the exported fields (or whole types) that no shipped
// code supplies and that stay anyway. Keys are "pkg.Type.Field" or
// "pkg.Type". At most 10.
var fieldAllow = map[string]string{
	"mlab.AnalysisConfig":         "serialized inside the fig2 result that experiments.golden pins",
	"nimbus.Config.WindowSamples": "the probe and estimator tests shrink the FFT window so a seconds-long run yields eta windows; the ledger sizes its FFT probe by the default",
	"nimbus.Config.SlideInterval": "the probe and estimator tests shrink the slide with the window so a seconds-long run yields several eta windows",

	"probe.ServerConfig.BusyRetryHint":    "the busy-reply tests shrink it to reach the client's retry-after path in test time",
	"probe.ServerConfig.GlobalBurst":      "the overload and shedding tests shrink it to reach the global limiter's safety path",
	"probe.ServerConfig.PerSourceBurst":   "the overload and shedding tests shrink it to reach the per-source limiter's safety path",
	"probe.ServerConfig.SnapshotInterval": "the spool test shrinks it so a sub-second loopback session yields a multi-snapshot record",
	"load.Config.HandshakeAttempts":       "the unresponsive-server and refused-socket tests shrink the retry budget to reach those paths in test time",
	"load.Config.HandshakeTimeout":        "the unresponsive-server and refused-socket tests shrink the retry budget to reach those paths in test time",
}

// TestExportedFieldsAreSupplied is the declaration gate one level down:
// a switch nobody flips selects code nobody runs. Every exported field
// of an exported struct declared in a non-test file under internal/ —
// structs with a field serialized under a json tag are wire or result
// formats and are skipped; json:"-" alone does not skip — must be
// supplied by at least one non-test .go file under cmd/, internal/ or
// ledger/: as a composite-literal key of its type, or as the target of
// an assignment, ++/--, & or range clause. Writes inside a method named
// norm or Norm do not count (a default is not a second value). An
// accumulator filled
// only through its own methods (x.F.Append(...) as a statement) counts
// as supplied if something also reads it: the field is named somewhere
// other than such a statement. Composite keys match by (type name,
// field name) and the rest by field name, so like the declaration gate
// it is a lower bound.
func TestExportedFieldsAreSupplied(t *testing.T) {
	fset := token.NewFileSet()
	type field struct {
		pkg, typ, name string
		pos            token.Pos
	}
	var fields []field
	litKeys := map[[2]string]bool{}    // {type name, field name}
	written := map[string]bool{}       // field name -> written outside every norm()
	normWrites := map[[2]string]bool{} // {type name, field name}
	selected := map[string]int{}       // field name -> x.F occurrences
	callStmts := map[string]int{}      // field name -> x.F.M(...) statements

	for _, sf := range parseShipped(t, fset) {
		f := sf.f
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE && sf.root == "internal" {
				for _, s := range gd.Specs {
					ts := s.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() || hasJSONTag(st) {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							if n.IsExported() {
								fields = append(fields, field{f.Name.Name, ts.Name.Name, n.Name, n.Pos()})
							}
						}
					}
				}
			}
			normOf := ""
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && strings.EqualFold(fd.Name.Name, "norm") {
				normOf = recvIdent(fd.Recv.List[0].Type).Name
			}
			write := func(e ast.Expr) {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					if normOf != "" {
						normWrites[[2]string{normOf, sel.Sel.Name}] = true
					} else {
						written[sel.Sel.Name] = true
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					noteLitKeys(n, litTypeName(n.Type), litKeys)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.RangeStmt:
					write(n.Key)
					write(n.Value)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.SelectorExpr:
					selected[n.Sel.Name]++
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						if method, ok := call.Fun.(*ast.SelectorExpr); ok {
							if recv, ok := method.X.(*ast.SelectorExpr); ok {
								callStmts[recv.Sel.Name]++
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(fields) < 100 {
		t.Fatalf("scanned only %d exported fields; run from the repo root", len(fields))
	}

	var dead []string
	excused := map[string]bool{}
	for _, f := range fields {
		accumulates := callStmts[f.name] > 0
		if litKeys[[2]string{f.typ, f.name}] || written[f.name] ||
			accumulates && selected[f.name] > callStmts[f.name] {
			continue
		}
		typ := f.pkg + "." + f.typ
		switch {
		case fieldAllow[typ+"."+f.name] != "":
			excused[typ+"."+f.name] = true
		case fieldAllow[typ] != "":
			excused[typ] = true
		default:
			why := ""
			switch {
			case accumulates:
				why = ", filled through its methods but read by nothing"
			case normWrites[[2]string{f.typ, f.name}]:
				why = ", defaulted in norm()"
			}
			dead = append(dead, typ+"."+f.name+"  ("+fset.Position(f.pos).String()+why+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported fields under internal/ are supplied by no shipped code "+
			"(make each a constant or delete it with the code it selects, or add a reasoned fieldAllow entry):\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
	if len(fieldAllow) > 10 {
		t.Errorf("fieldAllow has %d entries, cap is 10", len(fieldAllow))
	}
	for key := range fieldAllow {
		if !excused[key] {
			t.Errorf("fieldAllow entry %q excuses nothing any more; remove it", key)
		}
	}
}

// hasJSONTag reports whether a field of st is serialized under a json
// tag; json:"-" only keeps a field out of the encoding.
func hasJSONTag(st *ast.StructType) bool {
	for _, fl := range st.Fields.List {
		if fl.Tag == nil {
			continue
		}
		tag, _ := strconv.Unquote(fl.Tag.Value)
		if name, ok := reflect.StructTag(tag).Lookup("json"); ok && name != "-" {
			return true
		}
	}
	return false
}

// litTypeName is the bare type name a composite literal's Type spells
// (T, pkg.T, or the element type of []T / [n]T / map[K]T), "" otherwise.
func litTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.StarExpr:
		return litTypeName(x.X)
	case *ast.ArrayType:
		return litTypeName(x.Elt)
	case *ast.MapType:
		return litTypeName(x.Value)
	}
	return ""
}

// noteLitKeys records lit's keys under typ and hands typ down to the
// elements of a slice, array or map literal whose own type is elided.
func noteLitKeys(lit *ast.CompositeLit, typ string, keys map[[2]string]bool) {
	for _, el := range lit.Elts {
		v := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				keys[[2]string{typ, id.Name}] = true
			}
			v = kv.Value
		}
		if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
			v = u.X
		}
		if inner, ok := v.(*ast.CompositeLit); ok && inner.Type == nil {
			noteLitKeys(inner, typ, keys)
		}
	}
}
