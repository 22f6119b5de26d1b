package main

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/types"
)

// TestGeneratedProgramsTypecheck: every generated program, at the
// workload's size, passes the checker with priority checking on.
func TestGeneratedProgramsTypecheck(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := genProgram(rand.New(rand.NewSource(seed)), l4iThreads, l4iTol)
		prog, err := parser.Parse(p.src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, p.src)
		}
		checker := types.New(prog.Order)
		checker.CheckPriorities = true
		if _, err := checker.Cmd(types.NewEnv(prog.Order), types.Signature{}, prog.Main, prog.MainPrio); err != nil {
			t.Fatalf("seed %d: typecheck: %v\n%s", seed, err, p.src)
		}
		if p.threads < l4iThreads-l4iTol || p.threads > l4iThreads+l4iTol {
			t.Errorf("seed %d: %d threads, want %d±%d", seed, p.threads, l4iThreads, l4iTol)
		}
	}
}

// TestSmallProgramsAgreeAcrossBackends: at small sizes the abstract
// machine and the compiled icilk backend compute the generator's
// expected value, with no ceiling violation and the predicted thread
// count, so the inputs are valid λ4i rather than merely accepted by
// one backend.
func TestSmallProgramsAgreeAcrossBackends(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		p := genProgram(rand.New(rand.NewSource(seed)), 16, 4)
		prog, err := parser.Parse(p.src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		mc := machine.New(prog.Order, prog.MainPrio, prog.Main)
		if err := mc.Run(machine.Prompt{P: 2}, 1_000_000); err != nil {
			t.Fatalf("seed %d: machine: %v\n%s", seed, err, p.src)
		}
		mv, ok := mc.FinalValue("main")
		if !ok || mv != (ast.Nat{N: p.want}) {
			t.Fatalf("seed %d: machine value %v, want %d\n%s", seed, mv, p.want, p.src)
		}
		cp, err := compile.Compile(prog, true)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		res, err := cp.Run(compile.RunConfig{Workers: 2})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Value != (ast.Nat{N: p.want}) || res.Stats.CeilingViolations != 0 || res.Threads != int64(p.threads) {
			t.Fatalf("seed %d: compiled value %v, %d violations, %d threads; want %d, 0, %d",
				seed, res.Value, res.Stats.CeilingViolations, res.Threads, p.want, p.threads)
		}
	}
}
