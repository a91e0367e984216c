package main

import "time"

// The host-speed probe. This benchmark runs on a small shared virtual
// machine whose speed changes under it: for tens of seconds at a time
// every rep of every workload takes 20 to 50% longer, in user time,
// with no steal time reported (README.md, "Noise"). No statistic over
// the reps of one run removes a phase that covers the whole run, so the
// harness measures the host beside the program: a fixed piece of work
// runs before and after every timed region, and host times are
// reported divided by how much slower than nominal the probe ran.
//
// The probe is fixed code in the benchmark's own package and calls
// nothing of the program, so a change to the program cannot move it.
// It has to be slowed by what slows the workloads. A dependent chain of
// shifts is not (it runs at the same speed in either phase), so the
// probe is work with high instruction-level parallelism: independent
// integer chains, then a switch-dispatched toy interpreter with a
// register file and a memory that fit the first-level cache.

// probeNominal is what one probe takes on this host in its quiet
// phase, in seconds. Dividing by it only sets the scale: reported host
// times are seconds of the quiet host. On another host the scale is
// off by a constant that cancels whenever two runs are compared.
const probeNominal = 0.050

var (
	probeProg [4096]uint32
	probeRegs [16]int64
	probeMem  [4096]int64
	probeSink uint64
)

func init() {
	x := uint32(12345)
	for i := range probeProg {
		x = x*1664525 + 1013904223
		probeProg[i] = x
	}
}

// hostProbe runs the probe once and returns the seconds it took. It
// does not allocate.
func hostProbe() float64 {
	t0 := time.Now()
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 13_000_000; i++ {
		a = a*3 + 1
		b = b*5 + 2
		c = c*7 + 3
		d = d*9 + 4
		e ^= e << 3
		f ^= f >> 5
		g += g >> 2
		h += h << 1
	}
	probeSink += a + b + c + d + e + f + g + h

	pc := 0
	for i := 0; i < 12_000_000; i++ {
		in := probeProg[pc&4095]
		ra, rb, rc := (in>>3)&15, (in>>7)&15, (in>>11)&15
		switch in & 7 {
		case 0:
			probeRegs[ra] = probeRegs[rb] + probeRegs[rc]
		case 1:
			probeRegs[ra] = probeRegs[rb] ^ int64(in>>15)
		case 2:
			probeRegs[ra] = probeMem[uint64(probeRegs[rb])&4095]
		case 3:
			probeMem[uint64(probeRegs[rb])&4095] = probeRegs[rc]
		case 4:
			if probeRegs[ra]&1 == 0 {
				pc += int(in >> 20)
			}
		case 5:
			probeRegs[ra] = probeRegs[rb] * 3
		case 6:
			probeRegs[ra] = probeRegs[rb] - probeRegs[rc]
		default:
			probeRegs[ra]++
		}
		pc++
	}
	probeSink += uint64(probeRegs[3])
	return time.Since(t0).Seconds()
}

// hostFactor is how much slower than nominal the host ran over a timed
// region, from the probes taken just before and just after it.
func hostFactor(before, after float64) float64 {
	return (before + after) / 2 / probeNominal
}
