// nodeterminism enforces the byte-identical determinism contract from
// PR 1: the simulation and experiment layers must produce the same
// bytes for any -parallel setting and any map-iteration order, and must
// be free of wall clocks and ambient entropy. The acr retransmission
// bug (a map range feeding retransmission order) is the motivating
// incident; time.Now leaking into a sweep cell is the same class.

package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// determinismContractPkgs are the packages under the byte-identical
// output contract (TestSweepSequentialParallelEquivalence and the CI
// parallel-vs-sequential cmp jobs pin it dynamically; this analyzer
// pins the mechanism statically).
var determinismContractPkgs = map[string]bool{
	"heardof/internal/sweep":       true,
	"heardof/internal/simtime":     true,
	"heardof/internal/rsm":         true,
	"heardof/internal/shard":       true,
	"heardof/internal/modelcheck":  true,
	"heardof/internal/hosweep":     true,
	"heardof/internal/experiments": true,
	"heardof/internal/predimpl":    true,
}

// clockExempt lists where real time and entropy are allowed: the live
// layer (whose whole point is real clocks), the command-line mains, and
// the runnable examples that drive live clusters.
func clockExempt(path string) bool {
	switch path {
	case "heardof/internal/live", "heardof/internal/livekv":
		return true
	}
	return strings.HasPrefix(path, "heardof/cmd/") || strings.HasPrefix(path, "heardof/examples/")
}

// clockFuncs are the time functions that read or schedule against the
// wall clock. time.Duration arithmetic and type uses stay legal.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// entropyImports are ambient randomness sources; the simulation layers
// must draw from seeded internal/xrand streams instead.
var entropyImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// NoDeterminism is the determinism-contract analyzer.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc: "flags unordered map iteration in the determinism-contract packages, " +
		"and wall-clock or ambient-entropy use outside the live layer",
	AppliesTo: inModule,
	Run:       runNoDeterminism,
}

func runNoDeterminism(pass *Pass) {
	pkg := pass.Pkg
	checkMaps := determinismContractPkgs[pkg.Path]
	checkClock := !clockExempt(pkg.Path)
	if !checkMaps && !checkClock {
		return
	}
	pass.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			if !checkClock {
				return true
			}
			if path, err := strconv.Unquote(n.Path.Value); err == nil && entropyImports[path] {
				pass.Reportf(n.Pos(), "import of %s: the sim layers draw entropy from seeded internal/xrand streams only", path)
			}
		case *ast.RangeStmt:
			if !checkMaps {
				return true
			}
			tv, ok := pkg.Info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(n.Pos(), "map iteration order is nondeterministic and %s is under the byte-identical determinism contract; iterate sorted keys, or justify with //holint:allow nodeterminism <reason> if the fold is order-insensitive", pkg.Path)
			}
		case *ast.CallExpr:
			if !checkClock {
				return true
			}
			fn := calleeOf(pkg.Info, n)
			if fn != nil && funcPkgPath(fn) == "time" && clockFuncs[fn.Name()] {
				pass.Reportf(n.Pos(), "time.%s reads the wall clock: outside internal/live, livekv, and cmd/* all time is simulated (simtime) so runs replay byte-identically", fn.Name())
			}
		}
		return true
	})
}
