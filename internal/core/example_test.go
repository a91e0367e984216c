package core_test

import (
	"fmt"
	"log"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/ir"
)

// Table 1 of the paper: a program registers a Compiler Interrupt
// handler that is called periodically throughout execution, here
// printing the IR executed since its previous call. The IR is the
// equivalent of Table 1's counting loop: main increments a shared
// counter a large, bounded number of times.
func ExampleCompile() {
	const program = `
module quickstart
mem 64

func @main() {
entry:
  %i = mov 0
  %limit = mov 2000000
  jmp loop
loop:
  %c = lt %i, %limit
  br %c, body, done
body:
  %i = add %i, 1
  store _, 0, %i
  jmp loop
done:
  ret %i
}
`
	prog, err := core.Compile(ir.MustParse(program),
		core.WithDesign(instrument.CI),
		core.WithProbeInterval(250))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled with %d probes (design %s)\n\n", prog.Instr.Probes, instrument.CI)

	// register_ci(100000, &handler): print progress every ~100k cycles.
	fires := 0
	res, err := prog.Run("main",
		core.WithInterval(100000),
		core.WithHandler(func(irSinceLast uint64) {
			fires++
			fmt.Printf("interrupt %2d: %7d IR since last handler call\n", fires, irSinceLast)
		}))
	if err != nil {
		log.Fatal(err)
	}
	s := res.Stats[0]
	fmt.Printf("\nloop result: %d increments\n", res.Returns[0])
	fmt.Printf("executed %d IR in %d cycles; %d probes run, %d interrupts delivered\n",
		s.Instrs, s.Cycles, s.Probes, s.HandlerCalls)
	// Output:
	// compiled with 2 probes (design CI)
	//
	// interrupt  1:  400250 IR since last handler call
	// interrupt  2:  400250 IR since last handler call
	// interrupt  3:  400250 IR since last handler call
	// interrupt  4:  400250 IR since last handler call
	// interrupt  5:  400250 IR since last handler call
	// interrupt  6:  400250 IR since last handler call
	// interrupt  7:  400250 IR since last handler call
	// interrupt  8:  400250 IR since last handler call
	// interrupt  9:  400250 IR since last handler call
	// interrupt 10:  400250 IR since last handler call
	// interrupt 11:  400250 IR since last handler call
	// interrupt 12:  400250 IR since last handler call
	// interrupt 13:  400250 IR since last handler call
	// interrupt 14:  400250 IR since last handler call
	// interrupt 15:  400250 IR since last handler call
	// interrupt 16:  400250 IR since last handler call
	// interrupt 17:  400250 IR since last handler call
	// interrupt 18:  400250 IR since last handler call
	// interrupt 19:  400250 IR since last handler call
	// interrupt 20:  400250 IR since last handler call
	// interrupt 21:  400250 IR since last handler call
	// interrupt 22:  400250 IR since last handler call
	// interrupt 23:  400250 IR since last handler call
	// interrupt 24:  400250 IR since last handler call
	//
	// loop result: 2000000 increments
	// executed 10360006 IR in 20186605 cycles; 40001 probes run, 24 interrupts delivered
}
