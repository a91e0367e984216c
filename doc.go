// Package repro is a from-scratch Go reproduction of "Frequent
// Background Polling on a Shared Thread, using Light-Weight Compiler
// Interrupts" (Basu, Montanari, Eriksson — PLDI 2021).
//
// The library lives under internal/: the IR and CFG analyses, the CI
// analysis and instrumentation passes, the libci runtime, the cycle-
// accurate VM substrate, the 28 Table-7 workloads, and the mTCP /
// Shenango / FFWD application models. See README.md for the map,
// DESIGN.md for the architecture and substitutions, and EXPERIMENTS.md
// for paper-vs-measured results. cmd/ciexp regenerates every table and
// figure of the paper's evaluation from the experiments.Figures table.
package repro
