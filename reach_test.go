package repro_test

import (
	"encoding/json"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// reachAllow names the exported declarations under internal/ that no
// shipped code uses and that stay anyway. Keys are "pkg.Name" or
// "pkg.Recv.Name"; a bare "pkg" covers the whole package. At most 5.
var reachAllow = map[string]string{
	"obs.ReadRunLog":  "the run-log artifact format's reader; every -trace and flight-dump test parses through it",
	"hunt.LoadCorpus": "SaveCorpus's inverse: reads testdata/corpus for the tier-1 replay gate",

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
// growing back: every exported top-level func, method or type, and
// every exported method of an interface, declared in a non-test file
// under internal/ must be used by at least one non-test .go file under
// cmd/, internal/ or ledger/ other than at its own declaration or as a
// method's receiver type. Uses are resolved by go/types, so a method
// is not kept alive by a same-named method of another type, and a read
// accessor only tests call belongs in export_test.go. Exempt by rule:
// methods of a type that implements an interface whose same-named
// method is called — a standard-library interface the standard library
// calls, or any interface, interface literal or type-parameter
// constraint a shipped call goes through.
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
	for id, obj := range info.Uses {
		if skip[id.Pos()] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}
	called, err := interfaceCalls(info, im)
	if err != nil {
		t.Fatal(err)
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
	if len(reachAllow) > 5 {
		t.Errorf("reachAllow has %d entries, cap is 5", len(reachAllow))
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
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
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

// exportedDecls lists f's exported funcs, methods, types and interface
// methods, and records in skip the positions of method receiver type
// names.
func exportedDecls(f *ast.File, info *types.Info, skip map[token.Pos]bool) []types.Object {
	var out []types.Object
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				skip[recvIdent(d.Recv.List[0].Type).Pos()] = true
			}
			if d.Name.IsExported() {
				out = append(out, info.Defs[d.Name])
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, s := range d.Specs {
				ts := s.(*ast.TypeSpec)
				if ts.Name.IsExported() {
					out = append(out, info.Defs[ts.Name])
				}
				if it, ok := ts.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, n := range m.Names {
							if n.IsExported() {
								out = append(out, info.Defs[n])
							}
						}
					}
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

// paramAllow names the parameters that every shipped call passes one
// value and that stay anyway. Keys are "pkg.Func param" or
// "pkg.Recv.Method param". At most 6.
var paramAllow = map[string]string{
	"qdisc.NewDRR quantum":              "ledger/ passes this value; goes with ROADMAP item 2",
	"qdisc.NewDropTailBDP mult":         "ledger/ passes this value; goes with ROADMAP item 2",
	"qdisc.NewUserIsolation burstBytes": "ledger/ passes this value; goes with ROADMAP item 2",
	"stats.NewSketch lo":                "ledger/ passes this value; goes with ROADMAP item 2",
	"mlab.AnalyzeStream cfg":            "ledger/ passes this value; goes with ROADMAP item 2",
	"changepoint.Scratch.PELT minSize":  "ledger/ passes this value; goes with ROADMAP item 2",
}

// TestParametersVary is the option rule for parameters: every
// parameter of an exported func or method declared in a non-test file
// under internal/ must be passed at least two distinct values, or one
// value that is not a constant, by the calls in non-test files under
// cmd/, internal/ and ledger/. A constant, nil and a zero-value
// composite literal (T{} or &T{}) are one value each. Exempt: a func
// no shipped code calls (the reach gate's concern), a func referenced
// as a value, and a method of a type that implements an interface whose
// same-named method shipped code calls, since those calls go through
// the interface.
func TestParametersVary(t *testing.T) {
	fset := token.NewFileSet()
	files := parseShipped(t, fset)
	im := typeCheckShipped(t, fset, files)
	called, err := interfaceCalls(im.info, im)
	if err != nil {
		t.Fatal(err)
	}
	var decls, all []*ast.File
	for _, sf := range files {
		if sf.root == "internal" {
			decls = append(decls, sf.f)
		}
		all = append(all, sf.f)
	}
	scan := scanParams(decls, all, im.info, called)
	if scan.calls < 1000 {
		t.Fatalf("read only %d calls to exported funcs; run from the repo root", scan.calls)
	}

	var fixed []string
	excused := map[string]bool{}
	for _, p := range scan.fixed {
		key := p.fn + " " + p.param.Name()
		if paramAllow[key] != "" {
			excused[key] = true
			continue
		}
		fixed = append(fixed, key+" = "+p.value+"  ("+fset.Position(p.param.Pos()).String()+")")
	}
	sort.Strings(fixed)
	if len(fixed) > 0 {
		t.Errorf("%d parameters of exported funcs under internal/ get one constant value from every shipped call "+
			"(make each a constant, or add a reasoned paramAllow entry):\n  %s", len(fixed), strings.Join(fixed, "\n  "))
	}
	if len(paramAllow) > 6 {
		t.Errorf("paramAllow has %d entries, cap is 6", len(paramAllow))
	}
	for key := range paramAllow {
		if !excused[key] {
			t.Errorf("paramAllow entry %q excuses nothing any more; remove it", key)
		}
	}
}

// interfaceCalls lists the interface methods that code in info calls,
// and the methods of stdIfaces, which the standard library calls.
func interfaceCalls(info *types.Info, imp types.Importer) ([]*types.Func, error) {
	var called []*types.Func
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, fn)
			}
		}
	}
	for _, p := range stdIfaces {
		pkg, err := imp.Import(p[0])
		if err != nil {
			return nil, err
		}
		iface := pkg.Scope().Lookup(p[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			called = append(called, iface.Method(i))
		}
	}
	return called, nil
}

// fixedParam is a parameter every call passes the same constant.
type fixedParam struct {
	fn    string // "pkg.Func" or "pkg.Recv.Method"
	param *types.Var
	value string
}

type paramScanResult struct {
	fixed []fixedParam
	calls int // calls read to the exported funcs of decls
}

// scanParams reads the calls in files to the exported funcs and
// methods declared in decls and reports the parameters that get one
// constant value from all of them (see TestParametersVary).
func scanParams(decls, files []*ast.File, info *types.Info, called []*types.Func) paramScanResult {
	var fns []*types.Func
	for _, f := range decls {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				fns = append(fns, info.Defs[fd.Name].(*types.Func))
			}
		}
	}
	// values[fn][i] is the set of values fn's parameter i is passed; a
	// non-constant argument is the value "" and settles it.
	values := map[*types.Func][]map[string]bool{}
	for _, fn := range fns {
		values[fn] = make([]map[string]bool, fn.Type().(*types.Signature).Params().Len())
	}
	escapes := map[*types.Func]bool{}
	var res paramScanResult
	for _, f := range files {
		callee := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				id := calleeIdent(ast.Unparen(n.Fun))
				if ix, ok := ast.Unparen(n.Fun).(*ast.IndexExpr); ok {
					id = calleeIdent(ix.X) // an explicit instantiation f[T](...)
				}
				if id == nil {
					return true
				}
				callee[id] = true
				fn, ok := info.Uses[id].(*types.Func)
				if !ok || values[fn.Origin()] == nil {
					return true
				}
				fn = fn.Origin()
				res.calls++
				sig := fn.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					if values[fn][i] == nil {
						values[fn][i] = map[string]bool{}
					}
					values[fn][i][argValue(n, i, sig, info)] = true
				}
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok && !callee[n] {
					escapes[fn.Origin()] = true
				}
			}
			return true
		})
	}
	for _, fn := range fns {
		if escapes[fn] || viaInterface(fn, called) {
			continue
		}
		sig := fn.Type().(*types.Signature)
		for i, vals := range values[fn] {
			if len(vals) != 1 || vals[""] {
				continue
			}
			for v := range vals {
				res.fixed = append(res.fixed, fixedParam{declKey(fn), sig.Params().At(i), v})
			}
		}
	}
	return res
}

// argValue is the value call passes parameter i of sig: a constant's
// text (a float as the float64 it rounds to), "nil", "{}" for a
// zero-value composite literal, or "" for anything else. A variadic
// parameter's value is the list of its arguments.
func argValue(call *ast.CallExpr, i int, sig *types.Signature, info *types.Info) string {
	one := func(e ast.Expr) string {
		tv := info.Types[e]
		switch {
		case tv.Value != nil && tv.Value.Kind() == constant.Float:
			f, _ := constant.Float64Val(tv.Value) // the float64 the callee gets
			return strconv.FormatFloat(f, 'g', -1, 64)
		case tv.Value != nil:
			return tv.Value.ExactString()
		case tv.IsNil():
			return "nil"
		}
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		if lit, ok := e.(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
			return "{}"
		}
		return ""
	}
	if len(call.Args) == 1 && sig.Params().Len() > 1 {
		return "" // f(g()) spreads one call's results
	}
	if !sig.Variadic() || i < sig.Params().Len()-1 {
		return one(call.Args[i])
	}
	if call.Ellipsis.IsValid() {
		return one(call.Args[i])
	}
	var list []string
	for _, a := range call.Args[i:] {
		v := one(a)
		if v == "" {
			return ""
		}
		list = append(list, v)
	}
	return "[" + strings.Join(list, ", ") + "]"
}

// fieldAllow names the exported fields (or whole types) that no shipped
// code supplies and that stay anyway. Keys are "pkg.Type.Field" or
// "pkg.Type". At most 9.
var fieldAllow = map[string]string{
	"core.Fig3Config.Nimbus":      "the fig3 record serializes the probe configuration it ran (norm's Mu and pulse), and the ledger's fig3-cell result digest pins those bytes; it goes with the ledger's next change",
	"nimbus.Config.WindowSamples": "the probe and estimator tests shrink the FFT window so a seconds-long run yields eta windows; the ledger sizes its FFT probe by the default",
	"nimbus.Config.SlideInterval": "the probe and estimator tests shrink the slide with the window so a seconds-long run yields several eta windows",

	"probe.ServerConfig.BusyRetryHint":    "the busy-reply tests shrink it to reach the client's retry-after path in test time",
	"probe.ServerConfig.GlobalBurst":      "the overload and shedding tests shrink it to reach the global limiter's safety path",
	"probe.ServerConfig.PerSourceBurst":   "the overload and shedding tests shrink it to reach the per-source limiter's safety path",
	"probe.ServerConfig.SnapshotInterval": "the spool test shrinks it so a sub-second loopback session yields a multi-snapshot record",
	"load.Config.HandshakeAttempts":       "the unresponsive-server and refused-socket tests shrink the retry budget to reach those paths in test time",
	"load.Config.HandshakeTimeout":        "the unresponsive-server and refused-socket tests shrink the retry budget to reach those paths in test time",
}

// fieldExempt names the structs filled from bytes another program
// wrote: their fields are that program's format, not options of this
// one.
var fieldExempt = map[string]bool{
	"mlab.Record":    true, // an M-Lab NDT record, in the NDT schema
	"census.Partial": true, // a census shard's output, read back by merge
}

// inputRoots are the structs a user writes as JSON. A key of one (or of
// a struct it holds) counts as supplied when a shipped JSON file, a
// fenced JSON block of the docs or a CI heredoc sets it.
var inputRoots = [][2]string{
	{"repro/internal/scenario", "Spec"},
	{"repro/internal/scenario", "Grid"},
	{"repro/internal/census", "Model"},
	{"repro/internal/hunt", "CorpusEntry"},
}

// TestExportedFieldsAreSupplied is the declaration gate one level down:
// a switch nobody flips selects code nobody runs. Every exported field
// of an exported struct declared in a non-test file under internal/,
// tagged or not, must be supplied by at least one non-test .go file
// under cmd/, internal/ or ledger/ — as a composite-literal key, or on
// the path of an assignment, ++/--, & or range target (x.F[i].G = v
// supplies F and G) — or, for the fields inputRoots reach, by shipped
// JSON. Fields resolve through go/types, so a same-named field of
// another struct does not count. Writes inside a method named norm or
// Norm do not count (a default is not a second value). An accumulator
// filled only through its own methods (x.F.Append(...) as a statement)
// counts as supplied if something also reads it. Exempt: the structs in
// fieldExempt.
func TestExportedFieldsAreSupplied(t *testing.T) {
	fset := token.NewFileSet()
	files := parseShipped(t, fset)
	im := typeCheckShipped(t, fset, files)
	var fields []*types.Var
	for _, sf := range files {
		if sf.root == "internal" {
			fields = append(fields, exportedFields(sf.f, im.info)...)
		}
	}
	if len(fields) < 300 {
		t.Fatalf("scanned only %d exported fields; run from the repo root", len(fields))
	}
	w := newFieldWrites(im.info)
	for _, sf := range files {
		w.scan(sf.f)
	}
	docs := shippedJSON(t)
	for _, r := range inputRoots {
		pkg, err := im.Import(r[0])
		if err != nil {
			t.Fatal(err)
		}
		root := pkg.Scope().Lookup(r[1]).Type()
		for _, v := range docs {
			w.supplyJSON(root, v)
		}
	}

	var dead []string
	excused := map[string]bool{}
	for _, f := range fields {
		if w.supplied[f] || w.calls[f] > 0 && w.selected[f] > w.calls[f] {
			continue
		}
		key := fieldKey(f)
		typ := key[:strings.LastIndex(key, ".")]
		switch {
		case fieldAllow[key] != "":
			excused[key] = true
		case fieldAllow[typ] != "":
			excused[typ] = true
		default:
			why := ""
			switch {
			case w.calls[f] > 0:
				why = ", filled through its methods but read by nothing"
			case w.inNorm[f]:
				why = ", defaulted in norm()"
			}
			dead = append(dead, key+"  ("+fset.Position(f.Pos()).String()+why+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported fields under internal/ are supplied by no shipped code "+
			"(make each a constant or delete it with the code it selects, or add a reasoned fieldAllow entry):\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
	if len(fieldAllow) > 9 {
		t.Errorf("fieldAllow has %d entries, cap is 9", len(fieldAllow))
	}
	for key := range fieldAllow {
		if !excused[key] {
			t.Errorf("fieldAllow entry %q excuses nothing any more; remove it", key)
		}
	}
}

// exportedFields lists the exported fields of f's exported structs,
// fieldExempt's aside.
func exportedFields(f *ast.File, info *types.Info) []*types.Var {
	var out []*types.Var
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, s := range gd.Specs {
			ts := s.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() || fieldExempt[f.Name.Name+"."+ts.Name.Name] {
				continue
			}
			for _, fl := range st.Fields.List {
				for _, n := range fl.Names {
					if n.IsExported() {
						out = append(out, info.Defs[n].(*types.Var))
					}
				}
			}
		}
	}
	return out
}

// fieldKey is "pkg.Type.Field".
func fieldKey(f *types.Var) string {
	for _, name := range f.Pkg().Scope().Names() {
		tn, ok := f.Pkg().Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == f {
					return f.Pkg().Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	return f.Pkg().Name() + ".?." + f.Name()
}

// fieldWrites collects, per field, how shipped code supplies it.
type fieldWrites struct {
	info     *types.Info
	supplied map[*types.Var]bool
	inNorm   map[*types.Var]bool // written in a norm() only
	selected map[*types.Var]int  // x.F occurrences
	calls    map[*types.Var]int  // x.F.M(...) statements
}

func newFieldWrites(info *types.Info) *fieldWrites {
	return &fieldWrites{info, map[*types.Var]bool{}, map[*types.Var]bool{}, map[*types.Var]int{}, map[*types.Var]int{}}
}

// field resolves id to the struct field it names, nil otherwise.
func (w *fieldWrites) field(id *ast.Ident) *types.Var {
	if v, ok := w.info.Uses[id].(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// scan records f's writes, composite-literal keys and accumulator calls.
func (w *fieldWrites) scan(f *ast.File) {
	for _, d := range f.Decls {
		norm := false
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			norm = strings.EqualFold(fd.Name.Name, "norm")
		}
		write := func(e ast.Expr) {
			for e != nil {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if v := w.field(x.Sel); v != nil && norm {
						w.inNorm[v] = true
					} else if v != nil {
						w.supplied[v] = true
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				default:
					e = nil
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				w.supplyLit(n)
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
				if v := w.field(n.Sel); v != nil {
					w.selected[v]++
				}
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if method, ok := call.Fun.(*ast.SelectorExpr); ok {
						if recv, ok := method.X.(*ast.SelectorExpr); ok {
							if v := w.field(recv.Sel); v != nil {
								w.calls[v]++
							}
						}
					}
				}
			}
			return true
		})
	}
}

// supplyLit records a struct literal's keys, or every field of an
// unkeyed one.
func (w *fieldWrites) supplyLit(lit *ast.CompositeLit) {
	st, ok := w.info.Types[lit].Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			for i := 0; i < st.NumFields(); i++ {
				w.supplied[st.Field(i).Origin()] = true
			}
			return
		}
		if v := w.field(kv.Key.(*ast.Ident)); v != nil {
			w.supplied[v] = true
		}
	}
}

// supplyJSON records the fields v's keys set, when v decodes into t: at
// the top, every key of an object must name a field of t.
func (w *fieldWrites) supplyJSON(t types.Type, v any) {
	if arr, ok := v.([]any); ok {
		for _, e := range arr {
			w.supplyJSON(t, e)
		}
		return
	}
	obj, ok := v.(map[string]any)
	st, isStruct := t.Underlying().(*types.Struct)
	if !ok || !isStruct {
		return
	}
	for k := range obj {
		if jsonField(st, k) == nil {
			return
		}
	}
	w.walkJSON(t, v)
}

// walkJSON marks the fields of t that v's keys name, all the way down.
func (w *fieldWrites) walkJSON(t types.Type, v any) {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		w.walkJSON(u.Elem(), v)
	case *types.Slice:
		w.walkJSONElems(u.Elem(), v)
	case *types.Array:
		w.walkJSONElems(u.Elem(), v)
	case *types.Map:
		if obj, ok := v.(map[string]any); ok {
			for _, e := range obj {
				w.walkJSON(u.Elem(), e)
			}
		}
	case *types.Struct:
		obj, _ := v.(map[string]any)
		for k, e := range obj {
			if f := jsonField(u, k); f != nil {
				w.supplied[f] = true
				w.walkJSON(f.Type(), e)
			}
		}
	}
}

func (w *fieldWrites) walkJSONElems(elem types.Type, v any) {
	arr, _ := v.([]any)
	for _, e := range arr {
		w.walkJSON(elem, e)
	}
}

// jsonField is the field of st that encoding/json decodes key into.
func jsonField(st *types.Struct, key string) *types.Var {
	var fold *types.Var
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		switch {
		case name == "-" || !f.Exported():
			continue
		case name == "":
			name = f.Name()
		}
		if name == key {
			return f.Origin()
		}
		if fold == nil && strings.EqualFold(name, key) {
			fold = f.Origin()
		}
	}
	return fold
}

// docFiles are the files whose fenced blocks and inline code count as
// shipped lines: the docs a user reads and the ledger's README.
func docFiles(t *testing.T) []string {
	guides, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append([]string{"README.md", "EXPERIMENTS.md", "DESIGN.md", filepath.Join("ledger", "README.md")}, guides...)
}

const ciFile = ".github/workflows/ci.yml"

// shippedJSON decodes every JSON document a user is shown or a shipped
// run reads: ledger/specs, the hunt corpus, the docs' fenced blocks and
// CI's heredocs.
func shippedJSON(t *testing.T) []any {
	var texts []string
	for _, glob := range []string{"ledger/specs/*.json", "internal/hunt/testdata/corpus/*.json"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files match %s: %v", glob, err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			texts = append(texts, string(b))
		}
	}
	for _, p := range docFiles(t) {
		for _, b := range fencedBlocks(t, p) {
			texts = append(texts, strings.Join(b, "\n"))
		}
	}
	var doc []string
	inDoc := false
	for _, l := range readLines(t, ciFile) {
		switch trimmed := strings.TrimSpace(l); {
		case strings.Contains(trimmed, "<<'EOF'"):
			inDoc, doc = true, nil
		case inDoc && trimmed == "EOF":
			inDoc = false
			texts = append(texts, strings.Join(doc, "\n"))
		case inDoc:
			doc = append(doc, l)
		}
	}
	var out []any
	for _, s := range texts {
		var v any
		if json.Unmarshal([]byte(s), &v) == nil {
			out = append(out, v)
		}
	}
	if len(out) < 10 {
		t.Fatalf("decoded only %d shipped JSON documents; the sources moved or the scan broke", len(out))
	}
	return out
}

func readLines(t *testing.T, path string) []string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

// fencedBlocks returns the lines of each fenced block of a Markdown
// file.
func fencedBlocks(t *testing.T, path string) [][]string {
	var blocks [][]string
	var cur []string
	fenced := false
	for _, l := range readLines(t, path) {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			if fenced {
				blocks = append(blocks, cur)
			}
			fenced, cur = !fenced, nil
			continue
		}
		if fenced {
			cur = append(cur, l)
		}
	}
	return blocks
}

// flagAllow names the flags no shipped command line sets that stay
// anyway. Keys are "<command> -<name>", the command as its FlagSet (or
// binary) is named. A reason must be a deployment setting or an
// input-safety cap. At most flagAllowCap.
var flagAllow = map[string]string{
	"mlabanalyze -max-record-bytes": "an input-safety cap: one runaway JSONL line must not exhaust memory",
	"mlabanalyze -max-records":      "an input-safety cap: bounds a run over a dataset of unknown size",
	"probed -spool-max-bytes":       "a disk-safety cap: the size at which the spool's active file rotates",
	"ccac sweep -admin":             "a deployment setting: the address a sweep's admin endpoint listens on",
	"ccac run -fluid-above":         "a cost cap: background users from this index on run as one fluid aggregate, bounding a population run's CPU and memory",
	"probe -handshake-timeout":      "a deployment setting: a real path's first Hello deadline, which must exceed its RTT",
	"probed -readers":               "a deployment setting: reader goroutines for the node's cores",
	"probed -session-ttl":           "a deployment setting: how long a node holds the slot of a client that vanished without a Bye",
	"probed -fsync-every":           "a deployment setting: the node's spool durability against a crash, in records",
	"probed -drain-timeout":         "a deployment setting: the drain a node's load balancer allows after SIGTERM",
	"probeload -server":             "a deployment setting: the address of an external node to load instead of a self-hosted one",
}

// flagAllowCap bounds flagAllow at its present size: a new entry must
// replace one, and the bound falls as entries go.
const flagAllowCap = 11

// cliFlag is one flag a binary under cmd/ defines.
type cliFlag struct {
	cmd, name, kind string
	def             constant.Value // nil when not a constant
	pos             token.Pos
}

// TestFlagsAreSet is the option rule for the binaries: every flag a
// binary under cmd/ defines must be set to a value other than its
// default by a command line that runs — in a fenced block or inline
// code of the docs (docFiles), in CI's workflow or in ledger/run.sh. A
// usage hint in brackets ([-seed 2]) and prose do not count. A value
// that is a shell variable ($w) counts; a placeholder (N) does not.
func TestFlagsAreSet(t *testing.T) {
	fset := token.NewFileSet()
	files := parseShipped(t, fset)
	im := typeCheckShipped(t, fset, files)
	flags := definedFlags(files, im.info)
	n := 0
	for _, fs := range flags {
		n += len(fs)
	}
	if n < 70 {
		t.Fatalf("found only %d flag definitions; run from the repo root", n)
	}

	set := map[*cliFlag]bool{}
	lines := 0
	for _, line := range commandLines(t) {
		for _, inv := range invocations(line) {
			fs := flags[inv[0]]
			if fs == nil {
				continue
			}
			lines++
			for f, v := range flagValues(inv[1:], fs) {
				if nonDefault(f, v) {
					set[f] = true
				}
			}
		}
	}
	if lines < 40 {
		t.Fatalf("found only %d command lines; the sources moved or the scan broke", lines)
	}

	var unset []string
	excused := map[string]bool{}
	seen := map[*cliFlag]bool{}
	for _, fs := range flags {
		for _, f := range fs {
			if seen[f] {
				continue
			}
			seen[f] = true
			key := f.cmd + " -" + f.name
			switch {
			case set[f]:
			case flagAllow[key] != "":
				excused[key] = true
			default:
				unset = append(unset, key+"  ("+fset.Position(f.pos).String()+")")
			}
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d flags are set to a second value by no shipped command line "+
			"(delete each with the code it selects, or add a reasoned flagAllow entry):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	if len(flagAllow) > flagAllowCap {
		t.Errorf("flagAllow has %d entries, cap is %d", len(flagAllow), flagAllowCap)
	}
	for key := range flagAllow {
		if !excused[key] {
			t.Errorf("flagAllow entry %q excuses nothing any more; remove it", key)
		}
	}
}

// definedFlags finds every flag definition under cmd/ — a call to one
// of package flag's definers, or a *flag.FlagSet's — keyed by command
// and name. A FlagSet's command is the name flag.NewFlagSet gave it,
// followed through helper parameters to the callers; the flag
// package's own set is named after the binary's directory.
func definedFlags(files []shippedFile, info *types.Info) map[string]map[string]*cliFlag {
	type paramOf struct {
		fn  types.Object
		idx int
	}
	setName := map[types.Object]string{} // FlagSet variable -> name
	param := map[types.Object]paramOf{}
	calls := map[types.Object][]*ast.CallExpr{}
	for _, sf := range files {
		if sf.root != "cmd" {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[n.Name]
				i := 0
				for _, fl := range n.Type.Params.List {
					for _, name := range fl.Names {
						param[info.Defs[name]] = paramOf{fn, i}
						i++
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if name, ok := newFlagSet(rhs, info); ok && i < len(n.Lhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							setName[info.ObjectOf(id)] = name
						}
					}
				}
			case *ast.CallExpr:
				if id := calleeIdent(n.Fun); id != nil && info.Uses[id] != nil {
					obj := info.Uses[id]
					calls[obj] = append(calls[obj], n)
				}
			}
			return true
		})
	}
	var names func(obj types.Object, depth int) []string
	names = func(obj types.Object, depth int) []string {
		if name, ok := setName[obj]; ok {
			return []string{name}
		}
		p, ok := param[obj]
		if !ok || depth > 4 {
			return nil
		}
		var out []string
		for _, c := range calls[p.fn] {
			if id, ok := c.Args[p.idx].(*ast.Ident); ok {
				out = append(out, names(info.Uses[id], depth+1)...)
			}
		}
		return out
	}

	out := map[string]map[string]*cliFlag{}
	for _, sf := range files {
		if sf.root != "cmd" {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiner.MatchString(fn.Name()) {
				return true
			}
			kind := strings.TrimSuffix(fn.Name(), "Var")
			at := 0 // the name's argument
			if strings.HasSuffix(fn.Name(), "Var") {
				at = 1
			}
			lit, ok := call.Args[at].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			cmds := []string{filepath.Base(sf.dir)}
			if fn.Type().(*types.Signature).Recv() != nil {
				cmds = names(info.Uses[calleeIdent(sel.X)], 0)
				sort.Strings(cmds)
			}
			if len(cmds) == 0 {
				return true
			}
			// One definition is one option, whichever of the commands
			// sharing it sets it.
			f := &cliFlag{cmd: strings.Join(cmds, ", "), name: name, kind: kind,
				def: info.Types[call.Args[at+1]].Value, pos: lit.Pos()}
			for _, cmd := range cmds {
				if out[cmd] == nil {
					out[cmd] = map[string]*cliFlag{}
				}
				out[cmd][name] = f
			}
			return true
		})
	}
	return out
}

// flagDefiner matches the flag package's definers with a default value.
var flagDefiner = regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)(Var)?$`)

// newFlagSet reports the name of a flag.NewFlagSet("name", ...) call.
func newFlagSet(e ast.Expr, info *types.Info) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || fn.Name() != "NewFlagSet" {
		return "", false
	}
	v := info.Types[call.Args[0]].Value
	if v == nil || v.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(v), true
}

// calleeIdent is the identifier a call or receiver expression names:
// f, pkg.f or x.m's final name, nil otherwise.
func calleeIdent(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	}
	return nil
}

// commandLines returns the shipped command lines: each fenced-block
// line and each inline code span of docFiles, each line of CI's
// workflow and of ledger/run.sh, with backslash continuations joined.
func commandLines(t *testing.T) []string {
	var out []string
	join := func(lines []string) {
		cur := ""
		for _, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), "#") {
				continue
			}
			cur += l
			if strings.HasSuffix(strings.TrimSpace(cur), `\`) {
				cur = strings.TrimSuffix(strings.TrimSpace(cur), `\`) + " "
				continue
			}
			out = append(out, cur)
			cur = ""
		}
	}
	for _, p := range docFiles(t) {
		for _, b := range fencedBlocks(t, p) {
			join(b)
		}
		// Inline code, a paragraph at a time so a span may wrap.
		fenced := false
		para := ""
		for _, l := range append(readLines(t, p), "") {
			if strings.HasPrefix(strings.TrimSpace(l), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			if strings.TrimSpace(l) != "" {
				para += " " + l
				continue
			}
			for _, m := range inlineCode.FindAllStringSubmatch(para, -1) {
				out = append(out, m[1])
			}
			para = ""
		}
	}
	join(readLines(t, ciFile))
	join(readLines(t, filepath.Join("ledger", "run.sh")))
	return out
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// usageHint is a bracketed optional part of a usage line.
	usageHint = regexp.MustCompile(`\[[^\]]*\]`)
	// stageSep splits a shell line into its commands.
	stageSep = regexp.MustCompile(`\s(?:\||\|\||&&|;|&)\s|;$|&$`)
	// binaryToken is a binary's path as a command line spells it, with
	// ccac-race for a race-built ccac.
	binaryToken = regexp.MustCompile(`^(?:\S*/)?(ccac|ccac-race|probe|probed|probeload|mlabgen|mlabanalyze)$`)
)

// invocations finds the binaries line runs: each is the command (the
// binary, or "ccac <subcommand>") followed by its arguments. A binary
// named as a build output (-o NAME) or a package path under internal/
// does not run.
func invocations(line string) [][]string {
	var out [][]string
	for _, stage := range stageSep.Split(usageHint.ReplaceAllString(line, " "), -1) {
		toks := strings.Fields(stage)
		for i := 0; i < len(toks); i++ {
			m := binaryToken.FindStringSubmatch(toks[i])
			if m == nil || strings.Contains(toks[i], "internal/") || i > 0 && toks[i-1] == "-o" {
				continue
			}
			cmd, rest := strings.TrimSuffix(m[1], "-race"), toks[i+1:]
			if cmd == "ccac" {
				if len(rest) == 0 || strings.HasPrefix(rest[0], "-") {
					break
				}
				cmd, rest = cmd+" "+rest[0], rest[1:]
				if cmd == "ccac census" && len(rest) > 0 {
					cmd, rest = cmd+" "+rest[0], rest[1:]
				}
			}
			out = append(out, append([]string{cmd}, rest...))
			break
		}
	}
	return out
}

// flagValues maps each of fs's flags args sets to the value it gives:
// -name value, -name=value, or a bare -name for a bool.
func flagValues(args []string, fs map[string]*cliFlag) map[*cliFlag]string {
	out := map[*cliFlag]string{}
	for i := 0; i < len(args); i++ {
		a := strings.Trim(args[i], `'"`)
		if !strings.HasPrefix(a, "-") {
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		f := fs[name]
		switch {
		case f == nil:
		case hasVal:
			out[f] = val
		case f.kind == "Bool":
			out[f] = "true"
		case i+1 < len(args):
			i++
			out[f] = strings.Trim(args[i], `'"`)
		}
	}
	return out
}

// nonDefault reports whether v, given to f on a command line, is a
// value other than f's default.
func nonDefault(f *cliFlag, v string) bool {
	if strings.HasPrefix(v, "$") {
		return true
	}
	switch f.kind {
	case "Bool":
		b, err := strconv.ParseBool(v)
		return err == nil && (f.def == nil || b != constant.BoolVal(f.def))
	case "String":
		return f.def == nil || v != constant.StringVal(f.def)
	case "Duration":
		d, err := time.ParseDuration(v)
		if f.def == nil {
			return err == nil
		}
		def, _ := constant.Int64Val(constant.ToInt(f.def))
		return err == nil && int64(d) != def
	default:
		x, err := strconv.ParseFloat(v, 64)
		if f.def == nil {
			return err == nil
		}
		def, _ := constant.Float64Val(constant.ToFloat(f.def))
		return err == nil && x != def
	}
}

// TestFieldGateCountsNestedWrites: a write through an index or a
// nested selector supplies every field on its path, a composite key
// its field, and nothing supplies a field no code names.
func TestFieldGateCountsNestedWrites(t *testing.T) {
	const src = `package p
type Report struct {
	JainQ []float64
	Inner struct{ N int }
	Lit   int
	Never int
}
func fill(r *Report, i int) {
	r.JainQ[i] = 1
	r.Inner.N++
	_ = Report{Lit: 1}
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	w := newFieldWrites(info)
	w.scan(f)
	got := map[string]bool{}
	for v := range w.supplied {
		got[v.Name()] = true
	}
	for name, want := range map[string]bool{"JainQ": true, "Inner": true, "N": true, "Lit": true, "Never": false} {
		if got[name] != want {
			t.Errorf("%s supplied = %v, want %v", name, got[name], want)
		}
	}
}

// TestFlagGateReadsCommandLines: what the flag gate counts as setting
// a flag on a command line, and what it does not.
func TestFlagGateReadsCommandLines(t *testing.T) {
	run := map[string]*cliFlag{
		"think":       {kind: "Duration", def: constant.MakeInt64(0)},
		"fluid-above": {kind: "Int", def: constant.MakeInt64(0)},
		"seed":        {kind: "Int", def: constant.MakeInt64(1)},
		"workers":     {kind: "Int", def: constant.MakeInt64(0)},
		"json":        {kind: "Bool", def: constant.MakeBool(false)},
	}
	for _, c := range []struct {
		line string
		set  []string
	}{
		{"go run ./cmd/ccac run manyflow [-think 1s] -fluid-above 16 -json", []string{"fluid-above", "json"}},
		{`./ccac-race run "$obj" -seed 1 -workers $w | tee out.txt`, []string{"workers"}},
		{"ccac run fig3 -seed=2 && ccac run duel -think N", []string{"seed"}},
		{"go build -o ccac ./cmd/ccac", nil},
		{"go test ./internal/ccac -run TestX -seed 5", nil},
	} {
		var got []string
		for _, inv := range invocations(c.line) {
			if inv[0] != "ccac run" {
				t.Errorf("%q: invocation %q", c.line, inv[0])
				continue
			}
			for f, v := range flagValues(inv[1:], run) {
				if nonDefault(f, v) {
					for name, g := range run {
						if g == f {
							got = append(got, name)
						}
					}
				}
			}
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(c.set, ",") {
			t.Errorf("%q sets %v, want %v", c.line, got, c.set)
		}
	}
}

// TestParamGateReadsCallSites: what the parameter gate flags — a
// parameter that only ever gets one constant, nil or zero-value
// literal — and what it passes: a parameter that varies, one that gets
// a non-constant argument, a func referenced as a value, a method
// reached through an interface, and an unexported helper.
func TestParamGateReadsCallSites(t *testing.T) {
	const src = `package p
type Shape interface{ Area(scale int) int }
type Square struct{}
func (Square) Area(scale int) int { return scale }
func Fixed(n int, label string) int { return n }
func Open(n int) int { return n }
func Escapes(n int) int { return n }
func Zero(p *int, o struct{ A int }, xs ...int) {}
func helper(n int) int { return n }
func use(s Shape, k int) {
	Fixed(16, "a")
	Fixed(8+8, "b")
	Open(3)
	Open(k)
	f := Escapes
	f(1)
	Escapes(1)
	Square{}.Area(2)
	s.Area(k)
	Zero(nil, struct{ A int }{}, 1, 2)
	Zero(nil, struct{ A int }{}, 1, 2)
	helper(1)
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	called, err := interfaceCalls(info, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range scanParams([]*ast.File{f}, []*ast.File{f}, info, called).fixed {
		got = append(got, p.fn+" "+p.param.Name()+" = "+p.value)
	}
	sort.Strings(got)
	want := []string{"p.Fixed n = 16", "p.Zero o = {}", "p.Zero p = nil", "p.Zero xs = [1, 2]"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("flagged %q, want %q", got, want)
	}
}
