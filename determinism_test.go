package regconn

import (
	"fmt"
	"testing"

	"regconn/internal/bench"
)

// TestBuildIsDeterministic compiles the same benchmark twice and requires
// byte-identical machine code — map-iteration nondeterminism anywhere in
// the pipeline would make every recorded experiment irreproducible.
func TestBuildIsDeterministic(t *testing.T) {
	for _, name := range []string{"espresso", "cpp", "matrix300"} {
		bm, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		arch := Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32,
			Mode: WithRC, CombineConnects: true, Verify: true}
		render := func() string {
			ex, err := Build(bm.Build(), arch)
			if err != nil {
				t.Fatal(err)
			}
			out := ""
			for _, f := range ex.MProg.Funcs {
				out += f.Name + "\n"
				for i := range f.Code {
					out += fmt.Sprintf("%d %s\n", f.Code[i].Target, f.Code[i].String())
				}
			}
			return out
		}
		a, b := render(), render()
		if a != b {
			t.Errorf("%s: two builds differ", name)
		}
		// Cycle counts must agree as well.
		ex1, _ := Build(bm.Build(), arch)
		ex2, _ := Build(bm.Build(), arch)
		r1, err1 := ex1.Verify()
		r2, err2 := ex2.Verify()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Cycles != r2.Cycles || r1.Instrs != r2.Instrs {
			t.Errorf("%s: runs differ: %d/%d vs %d/%d cycles/instrs",
				name, r1.Cycles, r1.Instrs, r2.Cycles, r2.Instrs)
		}
	}
}
