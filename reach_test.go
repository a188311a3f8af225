package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the exported declarations under internal/ that no
// shipped code names and that stay anyway. Keys are "pkg.Name" or
// "pkg.Recv.Name"; a bare "pkg" covers the whole package. At most 8.
var reachAllow = map[string]string{
	"obs.ReadRunLog":  "the run-log artifact format's reader; every -trace and flight-dump test parses through it",
	"hunt.LoadCorpus": "SaveCorpus's inverse: reads testdata/corpus for the tier-1 replay gate",

	"qdisc.UserIsolation.SetUserRate":   "per-user plan changes; FuzzUserIsolationSchedule's oracle drives it (PR 16)",
	"qdisc.UserIsolation.SetUserWeight": "per-user plan changes; FuzzUserIsolationSchedule's oracle drives it (PR 16)",
	"qdisc.UserIsolation.ActiveUsers":   "read accessor over live state (parked + eligible users) that tests observe",
}

// ifaceMethods are method names that standard-library interfaces call
// (fmt, encoding, sort, container/heap, io, net/http, flag, errors), so
// no caller in this tree has to spell them.
var ifaceMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "Set": true,
}

type reachDecl struct {
	key  string
	name string
	pos  token.Pos
}

// TestExportedSurfaceIsReachable keeps test-only mechanisms from
// growing back: every exported top-level func, method or type declared
// in a non-test file under internal/ must be named by at least one
// non-test .go file under cmd/, internal/ or ledger/ other
// than at its own declaration. The match is by identifier, so it is a
// lower bound on dead code, not a call graph. Exempt by rule: methods
// whose body is a single return (read accessors tests observe) and
// methods the standard library's interfaces name.
func TestExportedSurfaceIsReachable(t *testing.T) {
	fset := token.NewFileSet()
	var decls []reachDecl
	skip := map[token.Pos]bool{} // declaring idents and receiver types
	uses := map[string][]token.Pos{}

	eachShippedFile(t, fset, func(root string, f *ast.File) {
		if root == "internal" {
			decls = append(decls, exportedDecls(f, skip)...)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	})
	if len(decls) < 200 {
		t.Fatalf("scanned only %d exported declarations; run from the repo root", len(decls))
	}

	var dead []string
	excused := map[string]bool{}
	for _, d := range decls {
		named := false
		for _, p := range uses[d.name] {
			if !skip[p] {
				named = true
				break
			}
		}
		if named {
			continue
		}
		pkg, _, _ := strings.Cut(d.key, ".")
		switch {
		case reachAllow[d.key] != "":
			excused[d.key] = true
		case reachAllow[pkg] != "":
			excused[pkg] = true
		default:
			dead = append(dead, d.key+"  ("+fset.Position(d.pos).String()+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported declarations under internal/ are named by no shipped code "+
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

// eachShippedFile parses every non-test .go file under cmd/, internal/
// and ledger/ and hands it to visit with the root it is under.
func eachShippedFile(t *testing.T, fset *token.FileSet, visit func(root string, f *ast.File)) {
	t.Helper()
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
			visit(root, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// exportedDecls lists f's exported funcs, methods and types that no
// rule exempts, and records in skip the identifier positions that do
// not count as a use: the declared name itself and, for a method, its
// receiver's type name.
func exportedDecls(f *ast.File, skip map[token.Pos]bool) []reachDecl {
	pkg := f.Name.Name
	var out []reachDecl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name.Pos()] = true
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				recv := recvIdent(d.Recv.List[0].Type)
				skip[recv.Pos()] = true
				key = pkg + "." + recv.Name + "." + d.Name.Name
				if ifaceMethods[d.Name.Name] || singleReturn(d.Body) {
					continue
				}
			}
			if d.Name.IsExported() {
				out = append(out, reachDecl{key, d.Name.Name, d.Name.Pos()})
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, s := range d.Specs {
				ts := s.(*ast.TypeSpec)
				skip[ts.Name.Pos()] = true
				if ts.Name.IsExported() {
					out = append(out, reachDecl{pkg + "." + ts.Name.Name, ts.Name.Name, ts.Name.Pos()})
				}
			}
		}
	}
	return out
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

func singleReturn(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) != 1 {
		return false
	}
	_, ok := b.List[0].(*ast.ReturnStmt)
	return ok
}

// fieldAllow names the exported fields (or whole types) that no shipped
// code supplies and that stay anyway. Keys are "pkg.Type.Field" or
// "pkg.Type". At most 10.
var fieldAllow = map[string]string{
	"nimbus.Config":       "serialized inside Fig3Result and the probe report; experiments.golden pins its bytes, so a never-set field cannot go without moving them",
	"mlab.AnalysisConfig": "serialized inside the fig2 result that experiments.golden pins",

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
// structs with a json-tagged field are wire or result formats and are
// skipped — must be supplied by at least one non-test .go file under
// cmd/, internal/ or ledger/: as a composite-literal key of its type,
// or as the target of an assignment, ++/--, & or range
// clause. Writes inside a method named norm do not count (a default is
// not a second value). An accumulator filled
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

	eachShippedFile(t, fset, func(root string, f *ast.File) {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE && root == "internal" {
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
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "norm" {
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
	})
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

func hasJSONTag(st *ast.StructType) bool {
	for _, fl := range st.Fields.List {
		if fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) {
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
