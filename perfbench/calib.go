package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/apps/email"
	"repro/internal/apps/jserver"
	"repro/internal/apps/proxy"
	"repro/internal/icilk"
	"repro/internal/serve"
	"repro/internal/simio"
	"repro/internal/workload"
)

// serverSeed is icilk-serve's default -seed, which the server hands to
// its simulated proxy origin and email devices.
const serverSeed = 20200406

// calibrate times the public calls of the icilk and app layers, each on
// an otherwise idle runtime at the server's default sizes. withL4i also
// sets up and runs the seed's λ4i programs, for runs whose workload
// bypasses the compile layer.
func calibrate(cfg config, rep *report, tr *tracer, withL4i bool) error {
	if err := calibrateIcilk(cfg, rep); err != nil {
		return err
	}
	if err := calibrateApps(cfg, rep); err != nil {
		return err
	}
	if !withL4i {
		return nil
	}
	set, err := setUpL4i(cfg.seed, tr)
	if err != nil {
		return err
	}
	compileLayers(rep, set, set.run(0, l4iMiniRuns, cfg.workers, rep, false, tr))
	return nil
}

// inTask runs fn as a task at priority p and waits for it.
func inTask[T any](rt *icilk.Runtime, p icilk.Priority, fn func(*icilk.Ctx) T) (T, error) {
	return icilk.Await(icilk.Go(rt, nil, p, "perfbench", fn), time.Minute)
}

func calibrateIcilk(cfg config, rep *report) error {
	conf := icilk.Config{Workers: cfg.workers, Levels: 2, Prioritize: true}
	var ms []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		icilk.New(conf).Shutdown()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rep.metrics["icilk.new_shutdown_ms"] = median(ms)

	rt := icilk.New(conf)
	defer rt.Shutdown()
	const n = 20000
	v, err := inTask(rt, 1, func(c *icilk.Ctx) [2]float64 {
		var spawn, promise []float64
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				icilk.Go(rt, c, 1, "child", func(*icilk.Ctx) int { return i }).TouchRelease(c)
			}
			spawn = append(spawn, float64(time.Since(t0).Nanoseconds())/n)
			t0 = time.Now()
			for i := 0; i < n; i++ {
				pr := icilk.NewPromise[int](rt, 1)
				pr.Complete(i)
				pr.Future().Touch(c)
			}
			promise = append(promise, float64(time.Since(t0).Nanoseconds())/n)
		}
		return [2]float64{median(spawn), median(promise)}
	})
	if err != nil {
		return fmt.Errorf("icilk calibration: %w", err)
	}
	rep.metrics["icilk.spawn_touch_ns"], rep.metrics["icilk.promise_touch_ns"] = v[0], v[1]
	return nil
}

// timeCalls runs call reps times, each as its own task at priority p,
// and returns the median duration in ms.
func timeCalls(rt *icilk.Runtime, p icilk.Priority, reps int, call func(*icilk.Ctx)) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		d, err := inTask(rt, p, func(c *icilk.Ctx) time.Duration {
			t0 := time.Now()
			call(c)
			return time.Since(t0)
		})
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// calibrateApps times the app calls the server's handlers make, at the
// priorities the server's admission table runs them at.
func calibrateApps(cfg config, rep *report) error {
	rt := icilk.New(icilk.Config{Workers: cfg.workers, Levels: serve.Levels, Prioritize: true})
	defer rt.Shutdown()
	js := jserver.NewJobSet(jserver.Config{})
	for _, j := range []struct {
		jt   workload.JobType
		reps int
	}{{workload.JobMatMul, 20}, {workload.JobFib, 5}, {workload.JobSort, 5}, {workload.JobSW, 5}} {
		p := jserver.PriorityOf(j.jt)
		ms, err := timeCalls(rt, p, j.reps, func(c *icilk.Ctx) { js.Exec(rt, c, p, j.jt) })
		if err != nil {
			return fmt.Errorf("jserver %s: %w", j.jt, err)
		}
		rep.metrics["jserver.exec_ms."+j.jt.String()] = ms
	}

	px := proxy.NewService(rt, simio.Latency{Base: 3 * time.Millisecond, Jitter: 5 * time.Millisecond}, serverSeed)
	const url = "http://site-0.example/"
	if _, err := inTask(rt, serve.PrioHeavy, func(c *icilk.Ctx) string { return px.Fetch(rt, c, serve.PrioHeavy, url) }); err != nil {
		return fmt.Errorf("proxy fetch: %w", err)
	}
	const lookups = 10000
	ms, err := timeCalls(rt, serve.PrioInteractive, 5, func(c *icilk.Ctx) {
		for i := 0; i < lookups; i++ {
			px.Lookup(c, url)
		}
	})
	if err != nil {
		return fmt.Errorf("proxy lookup: %w", err)
	}
	rep.metrics["proxy.lookup_us"] = ms * 1000 / lookups

	em := email.NewServer(rt, email.Config{Users: 8, Seed: serverSeed})
	if ms, err = timeCalls(rt, serve.PrioNormal, 20, func(c *icilk.Ctx) { em.Send(c, 1) }); err != nil {
		return fmt.Errorf("email send: %w", err)
	}
	rep.metrics["email.send_us"] = ms * 1000
	if ms, err = timeCalls(rt, serve.PrioHeavy, 10, func(c *icilk.Ctx) { em.Sort(c, 1) }); err != nil {
		return fmt.Errorf("email sort: %w", err)
	}
	rep.metrics["email.sort_ms"] = ms
	var prints []float64
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		_, err := icilk.Await(icilk.GoSelf(rt, nil, serve.PrioHeavy, "print", func(c *icilk.Ctx, self icilk.Future[int]) int {
			em.Print(c, 1, 3, self)
			return 0
		}), time.Minute)
		if err != nil {
			return fmt.Errorf("email print: %w", err)
		}
		prints = append(prints, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rep.metrics["email.print_ms"] = median(prints)
	return nil
}

// finishTrace reports each layer's self time and writes the spans out.
func finishTrace(cfg config, rep *report, tr *tracer) error {
	self := tr.selfTimes()
	for _, l := range spanLayers {
		rep.metrics["self_ms."+l] = self[l]
	}
	path := filepath.Join(cfg.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.notef("spans: %s", path)
	return nil
}
