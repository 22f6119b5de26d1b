package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/parser"
)

// Sizes of the l4i-forkjoin workload. Every program has l4iThreads ±
// l4iTol threads, so each seed runs the same amount of work in
// differently shaped trees.
const (
	l4iThreads  = 2000
	l4iTol      = 40
	l4iPrograms = 16 // programs per seed, run in turn
	l4iSetups   = 9  // set-ups per run; setup_s is their median
	l4iMiniRuns = 40 // runs of the seed's programs when calibrating a serve run
)

// l4iSet is a seed's programs, compiled.
type l4iSet struct {
	progs    []l4iProgram
	compiled []*compile.Prog
	parseMS  float64 // per program
	compMS   float64 // per program, typecheck included
}

// setUpL4i generates, parses and compiles the seed's programs.
func setUpL4i(seed int64, tr *tracer) (*l4iSet, error) {
	rng := rand.New(rand.NewSource(seed))
	set := &l4iSet{}
	var parseT, compT time.Duration
	for i := 0; i < l4iPrograms; i++ {
		t0 := time.Now()
		p := genProgram(rng, l4iThreads, l4iTol)
		t1 := time.Now()
		prog, err := parser.Parse(p.src)
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("parse generated program: %w", err)
		}
		cp, err := compile.Compile(prog, true)
		t3 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("compile generated program: %w", err)
		}
		tr.record(0, 0, 0, "l4igen", t0, t1)
		tr.record(0, 0, 0, "parser", t1, t2)
		tr.record(0, 0, 0, "compile", t2, t3)
		parseT += t2.Sub(t1)
		compT += t3.Sub(t2)
		set.progs = append(set.progs, p)
		set.compiled = append(set.compiled, cp)
	}
	set.parseMS = float64(parseT.Microseconds()) / 1000 / l4iPrograms
	set.compMS = float64(compT.Microseconds()) / 1000 / l4iPrograms
	return set, nil
}

// l4iRuns is the outcome of running a set's programs in turn.
type l4iRuns struct {
	wall    sample // Prog.Run wall time, ms
	eval    sample // Result.Elapsed, ms
	threads int64
	elapsed time.Duration
	sched   map[string]float64
}

// run executes the programs in turn until dur has passed (or n runs,
// when n > 0), checking each result. With count, runs are attempted
// operations of the report; otherwise a failure is only a failed check.
func (set *l4iSet) run(dur time.Duration, n, workers int, rep *report, count bool, tr *tracer) l4iRuns {
	r := l4iRuns{sched: map[string]float64{}}
	start := time.Now()
	for i := 0; (n > 0 && i < n) || (n == 0 && time.Since(start) < dur); i++ {
		k := i % len(set.compiled)
		t0 := time.Now()
		res, err := set.compiled[k].Run(compile.RunConfig{Workers: workers})
		t1 := time.Now()
		if count {
			rep.attempted++
		}
		if err == nil && (res.Value != ast.Nat{N: set.progs[k].want} || res.Stats.CeilingViolations != 0) {
			err = fmt.Errorf("main = %v with %d ceiling violations, want %d and 0",
				res.Value, res.Stats.CeilingViolations, set.progs[k].want)
		}
		if err != nil {
			if count {
				rep.failed++
			}
			rep.problem("l4i program %d: %v", k, err)
			r.wall.addMiss()
			continue
		}
		r.wall.addDur(t1.Sub(t0))
		r.eval.addDur(res.Elapsed)
		r.threads += res.Threads
		for key, v := range parseSched(res.Stats.String()) {
			r.sched[key] += v
		}
		id := tr.id()
		tr.record(0, id, id, "eval", t1.Add(-res.Elapsed), t1)
		tr.record(id, 0, id, "run", t0, t1)
	}
	r.elapsed = time.Since(start)
	return r
}

func (r l4iRuns) endToEnd(rep *report) e2e {
	e := e2e{p50: r.wall.p50(), p99: r.wall.tail(), throughput: float64(r.threads) / r.elapsed.Seconds()}
	rep.metrics["p50_ms"], rep.metrics["p99_ms"], rep.metrics["throughput_per_s"] = e.p50, e.p99, e.throughput
	rep.metrics["samples"] = float64(len(r.wall))
	rep.notef("p50_ms and p99_ms (%s) are Prog.Run wall times over %d runs; throughput_per_s is l4i_threads_per_s (%d threads)",
		tailNote(len(r.wall)), len(r.wall), r.threads)
	return e
}

// compileLayers sets the compile-layer metrics from a set and its runs.
func compileLayers(rep *report, set *l4iSet, r l4iRuns) {
	rep.metrics["parser.parse_ms"] = set.parseMS
	rep.metrics["compile.compile_ms"] = set.compMS
	rep.metrics["compile.run_ms.p50"] = r.wall.p50()
	rep.metrics["compile.run_ms.p99"] = r.wall.tail()
	rep.metrics["compile.eval_ms"] = r.eval.p50()
}

// runL4i runs the l4i-forkjoin workload in this process.
func runL4i(cfg config) (*report, error) {
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var set *l4iSet
	var times []float64
	for i := 0; i < l4iSetups; i++ {
		t0 := time.Now()
		s, err := setUpL4i(cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		set = s
	}
	rep.metrics["setup_s"] = median(times)
	rep.notef("setup_s: median of %d generate+parse+compile passes over %d programs of %d±%d threads",
		l4iSetups, l4iPrograms, l4iThreads, l4iTol)
	// One untimed pass, so pools and caches fill before timing.
	set.run(0, len(set.compiled), cfg.workers, rep, false, nil)

	rss := watchRSS(os.Getpid())
	if !cfg.trace {
		set.run(cfg.seconds, 0, cfg.workers, rep, true, nil).endToEnd(rep)
	} else {
		plain := set.run(cfg.seconds/2, 0, cfg.workers, rep, true, nil)
		traced := set.run(cfg.seconds/2, 0, cfg.workers, rep, true, tr)
		overhead(rep, plain.endToEnd(rep), traced.endToEnd(rep))
		compileLayers(rep, set, traced)
		icilkLayers(rep, traced.sched, map[string]float64{}, float64(traced.threads))
	}
	var err error
	if rep.metrics["peak_rss_mb"], err = rss.finish(rep); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}
	// The serve-layer metrics come from an idle probe of a server, so
	// every traced run reports every layer.
	srv, _, err := launch(cfg.serverBin, cfg.workers)
	if err != nil {
		return nil, err
	}
	pr, err := probe(srv, rand.New(rand.NewSource(cfg.seed)), tr)
	if err != nil {
		srv.stop()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	pr.checkOnly(rep)
	pr.serveLayers(rep, "the idle probe")
	if err := calibrate(cfg, rep, tr, false); err != nil {
		return nil, err
	}
	return rep, finishTrace(cfg, rep, tr)
}
