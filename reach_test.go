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
// "pkg.Recv.Name"; a bare "pkg" covers the whole package. At most 15.
var reachAllow = map[string]string{
	"bwe":             "pending ROADMAP's shaped-spec item: register abl-bwe or delete the package with examples/rcs",
	"obs.ReadRunLog":  "the run-log artifact format's reader; every -trace and flight-dump test parses through it",
	"hunt.LoadCorpus": "SaveCorpus's inverse: reads testdata/corpus for the tier-1 replay gate",
	"mlab.ReadJSONL":  "WriteJSONL's inverse: the dataset format's slice reader, a wrapper over RecordStream",
	"mlab.Analyze":    "slice-in wrapper over AnalyzeStream; the sequential side of TestAnalyzeStreamMatchesAnalyze",

	"qdisc.UserIsolation.SetUserRate":   "per-user plan changes; FuzzUserIsolationSchedule's oracle drives it (PR 16)",
	"qdisc.UserIsolation.SetUserWeight": "per-user plan changes; FuzzUserIsolationSchedule's oracle drives it (PR 16)",
	"qdisc.UserIsolation.ActiveUsers":   "read accessor over live state (parked + eligible users) that tests observe",
	"sim.Timer.Active":                  "read accessor over live state (generation-checked slot) that tests observe",
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
// non-test .go file under cmd/, internal/, examples/ or ledger/ other
// than at its own declaration. The match is by identifier, so it is a
// lower bound on dead code, not a call graph. Exempt by rule: methods
// whose body is a single return (read accessors tests observe) and
// methods the standard library's interfaces name.
func TestExportedSurfaceIsReachable(t *testing.T) {
	fset := token.NewFileSet()
	var decls []reachDecl
	skip := map[token.Pos]bool{} // declaring idents and receiver types
	uses := map[string][]token.Pos{}

	for _, root := range []string{"cmd", "internal", "examples", "ledger"} {
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
			if root == "internal" {
				decls = append(decls, exportedDecls(f, skip)...)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name] = append(uses[id.Name], id.Pos())
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
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
	if len(reachAllow) > 15 {
		t.Errorf("reachAllow has %d entries, cap is 15", len(reachAllow))
	}
	for key := range reachAllow {
		if !excused[key] {
			t.Errorf("reachAllow entry %q excuses nothing any more; remove it", key)
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
