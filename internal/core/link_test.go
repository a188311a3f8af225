package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/faults"
)

func TestResolveFaults(t *testing.T) {
	wifi, err := faults.Lookup("wifi-bursty")
	if err != nil {
		t.Fatal(err)
	}
	inline := &faults.Config{LossProb: 0.01}
	cases := []struct {
		name    string
		profile string
		inline  *faults.Config
		want    *faults.Config
		wantErr bool
	}{
		{name: "neither"},
		{name: "name only", profile: "wifi-bursty", want: &wifi},
		{name: "inline only", inline: inline, want: inline},
		{name: "both: inline wins", profile: "wifi-bursty", inline: inline, want: inline},
		{name: "inline wins over a bogus name", profile: "no-such-profile", inline: inline, want: inline},
		{name: "inline zero is clean, name ignored", profile: "wifi-bursty", inline: &faults.Config{}, want: &faults.Config{}},
		{name: "unknown name", profile: "no-such-profile", wantErr: true},
		{name: "invalid inline", inline: &faults.Config{LossProb: 1.5}, wantErr: true},
	}
	for _, tc := range cases {
		got, err := resolveFaults(tc.profile, tc.inline)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestCellDrivesOscillation: a hop whose faults oscillate gets its
// rate driver from newCell, sampling on the period/32 grid; a hop
// without oscillation schedules nothing extra.
func TestCellDrivesOscillation(t *testing.T) {
	const rate = 12e6
	f := &faults.Config{OscAmp: 0.3, OscPeriodS: 2}
	c, err := newCell(cellSpec{hops: []hop{{rateBps: rate, delay: 10 * time.Millisecond, fault: f}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	link := c.links[0]
	want := f.RateFunc(rate)
	const grid = 62500 * time.Microsecond
	for k := 1; k <= 20; k++ {
		// Just short of the next sample the link still carries this one.
		c.eng.Run(time.Duration(k+1)*grid - time.Microsecond)
		if got := link.Rate; got != want(time.Duration(k)*grid) {
			t.Fatalf("rate before sample %d = %v, want sample %d's %v", k+1, got, k, want(time.Duration(k)*grid))
		}
	}
	if link.Rate == rate {
		t.Error("link rate never left its base")
	}
	if c.eng.Processed != 20 {
		t.Errorf("driver ran %d ticks in 20 grid steps", c.eng.Processed)
	}

	// The event count of a clean 3 s reno-vs-cubic cell, recorded before
	// the oscillation driver was installed with the link.
	clean, err := newCell(cellSpec{
		hops:  []hop{{rateBps: 48e6, delay: 20 * time.Millisecond, bdp: 2}},
		flows: []flow{{id: 1, user: 1, cc: cca.NewRenoCC()}, {id: 2, user: 2, cc: cca.NewCubicCC()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.release()
	clean.eng.Run(3 * time.Second)
	if clean.eng.Processed != 34728 {
		t.Errorf("clean cell processed %d events, want 34728", clean.eng.Processed)
	}
}

// TestPaperProbeIsTheOneLiteral: the paper's probe configuration is
// written once, in nimbus.PaperConfig. No other nimbus.Config literal
// in the non-test files of this package, of nimbus or of cmd/probe may
// pin PulseFreq to a constant: abl-pulse overrides the paper's config
// from its sweep variables, and cellular's empty literal is Nimbus as
// a CCA under test, not the probe.
func TestPaperProbeIsTheOneLiteral(t *testing.T) {
	fset := token.NewFileSet()
	var sites []string
	for _, dir := range []string{".", "../nimbus", "../../cmd/probe"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					lit, ok := n.(*ast.CompositeLit)
					if !ok || !isNimbusConfig(lit.Type, file.Name.Name) {
						return true
					}
					for _, el := range lit.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, _ := kv.Key.(*ast.Ident)
						if _, constant := kv.Value.(*ast.BasicLit); constant && key != nil && key.Name == "PulseFreq" {
							sites = append(sites, file.Name.Name+"."+fn.Name.Name)
						}
					}
					return true
				})
			}
		}
	}
	if len(sites) != 1 || sites[0] != "nimbus.PaperConfig" {
		t.Errorf("nimbus.Config literals with a constant PulseFreq are in %v, want only nimbus.PaperConfig", sites)
	}
}

// isNimbusConfig reports whether a composite literal's type, written in
// package pkg, is nimbus.Config.
func isNimbusConfig(typ ast.Expr, pkg string) bool {
	switch x := typ.(type) {
	case *ast.Ident:
		return pkg == "nimbus" && x.Name == "Config"
	case *ast.SelectorExpr:
		id, ok := x.X.(*ast.Ident)
		return ok && id.Name == "nimbus" && x.Sel.Name == "Config"
	}
	return false
}
