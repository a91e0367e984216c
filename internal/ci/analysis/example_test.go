package analysis_test

import (
	"fmt"
	"log"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

const libSrc = `
module mathlib
func @dot8(%base) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, 8
  br %c, body, exit
body:
  %a = add %base, %i
  %m = and %a, 1023
  %v = load %m, 0
  %p = mul %v, %v
  %s = add %s, %p
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
func @saxpy(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %t = mul %i, 3
  %s = add %s, %t
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`

const appSrc = `
module app
mem 2048
import @dot8
import @saxpy
func @main(%n) {
entry:
  %acc = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %d = call @dot8(%i)
  %acc = add %acc, %d
  %i = add %i, 1
  jmp head
exit:
  %s = call @saxpy(%n)
  %acc = add %acc, %s
  ret %acc
}
`

// Modular compilation (§2.6): two build units compiled separately with
// Compiler Interrupts — a library whose cost file is exported, and an
// application that imports the library's functions plus that cost
// metadata — linked into one program whose interrupts keep their
// cadence across the module boundary.
func ExampleImportCosts() {
	// Build unit 1: the library, exporting its cost file.
	lib, err := core.CompileText(libSrc,
		core.WithDesign(instrument.CI),
		core.WithProbeInterval(250))
	if err != nil {
		log.Fatal(err)
	}
	costFile, err := lib.ExportCosts()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library cost file (§2.6):\n%s\n\n", costFile)

	// Build unit 2: the application, importing the cost metadata.
	imported, err := analysis.ImportCosts(costFile)
	if err != nil {
		log.Fatal(err)
	}
	app, err := core.CompileText(appSrc,
		core.WithDesign(instrument.CI),
		core.WithProbeInterval(250),
		core.WithImportedCosts(imported))
	if err != nil {
		log.Fatal(err)
	}

	// Link and run.
	linked, err := ir.Link("prog", app.Mod, lib.Mod)
	if err != nil {
		log.Fatal(err)
	}
	machine := vm.New(linked, nil, 1)
	machine.LimitInstrs = 100_000_000
	th := machine.NewThread(0)
	th.RT.RecordIntervals = true
	fires := 0
	id := th.RT.RegisterCI(5000, func(uint64) { fires++ })
	result, err := th.Run("main", 3000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result %d: %d interrupts over %d cycles (%d probes, both units instrumented)\n",
		result, fires, th.Stats.Cycles, th.Stats.Probes)
	ivs := th.RT.Intervals(id)
	if len(ivs) > 2 {
		var min, max int64 = ivs[1], ivs[1]
		for _, g := range ivs[1:] {
			if g < min {
				min = g
			}
			if g > max {
				max = g
			}
		}
		fmt.Printf("interval spread across the module boundary: %d..%d cycles\n", min, max)
	}
	fmt.Println("\ndot8 is exported as a transparent constant cost (callers fold it);")
	fmt.Println("saxpy is exported as self-instrumenting (callers charge only the call).")
	// Output:
	// library cost file (§2.6):
	// {
	//   "version": 1,
	//   "funcs": [
	//     {
	//       "name": "dot8",
	//       "instrumented": false,
	//       "cost": {
	//         "Kind": 1,
	//         "C": 78,
	//         "Scale": 0,
	//         "Param": 0
	//       }
	//     },
	//     {
	//       "name": "saxpy",
	//       "instrumented": true,
	//       "cost": {
	//         "Kind": 2,
	//         "C": 6,
	//         "Scale": 6,
	//         "Param": 0
	//       }
	//     }
	//   ]
	// }
	//
	// result 13495500: 13 interrupts over 518173 cycles (1576 probes, both units instrumented)
	// interval spread across the module boundary: 33649..41716 cycles
	//
	// dot8 is exported as a transparent constant cost (callers fold it);
	// saxpy is exported as self-instrumenting (callers charge only the call).
}
