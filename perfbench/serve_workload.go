package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// runServe runs one of the serve workloads against an icilk-serve
// process built from the tree under test.
func runServe(cfg config) (*report, error) {
	rep := newReport()
	srv, err := setUpServer(cfg, rep)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	rng := rand.New(rand.NewSource(cfg.seed))
	urls := make([]string, proxyURLs)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site-%d.example/", rng.Intn(1000))
	}
	if err := warmProxy(srv, urls); err != nil {
		return nil, err
	}
	if err := fillTaskRecords(srv, rep); err != nil {
		return nil, err
	}
	plans := func(dur time.Duration) []connPlan {
		switch cfg.workload {
		case "serve-sparse":
			return []connPlan{openPlan(rng, interactiveMix(rng, urls), sparseRate, dur)}
		case "serve-mixed":
			return []connPlan{openPlan(rng, interactiveMix(rng, urls), mixedRate, dur),
				closedPlan(rng, batchMix(rng), mixedDepth, dur)}
		default:
			m := floodMix(urls)
			return []connPlan{closedPlan(rng, m, floodDepth, dur), closedPlan(rng, m, floodDepth, dur)}
		}
	}
	warm, err := runPhase(srv, plans(warmupDuration), nil)
	if err != nil {
		return nil, err
	}
	warm.checkOnly(rep)

	var tr *tracer
	rss := watchRSS(srv.cmd.Process.Pid)
	if !cfg.trace {
		ph, err := runPhase(srv, plans(cfg.seconds), nil)
		if err != nil {
			return nil, err
		}
		ph.endToEnd(cfg.workload, rep)
	} else {
		// Half the time untraced, half traced, on the same server: the
		// difference is the tracing overhead.
		half := cfg.seconds / 2
		plain, err := runPhase(srv, plans(half), nil)
		if err != nil {
			return nil, err
		}
		tr = newTracer()
		traced, err := runPhase(srv, plans(half), tr)
		if err != nil {
			return nil, err
		}
		u, t := plain.endToEnd(cfg.workload, rep), traced.endToEnd(cfg.workload, rep)
		overhead(rep, u, t)
		traced.serveLayers(rep, "the workload")
		icilkLayers(rep, traced.after.sched, traced.before.sched, float64(traced.ok()))
	}
	if rep.metrics["peak_rss_mb"], err = rss.finish(rep); err != nil {
		return nil, err
	}
	if cfg.trace {
		// Classes this workload does not send are measured by an idle
		// probe, so every traced run reports every class.
		pr, err := probe(srv, rng, tr)
		if err != nil {
			return nil, err
		}
		pr.checkOnly(rep)
		pr.fillClasses(rep, "the idle probe")
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	if cfg.trace {
		if err := calibrate(cfg, rep, tr, true); err != nil {
			return nil, err
		}
		return rep, finishTrace(cfg, rep, tr)
	}
	return rep, nil
}

// setUpServer launches the server setupLaunches times, keeping the last
// one running; setup_s is the median launch-to-first-correct-/ping time.
func setUpServer(cfg config, rep *report) (*server, error) {
	var times []float64
	for i := 0; ; i++ {
		s, d, err := launch(cfg.serverBin, cfg.workers)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		if i == setupLaunches-1 {
			rep.metrics["setup_s"] = median(times)
			rep.notef("setup_s: median of %d launches %v", len(times), times)
			return s, nil
		}
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("stop server: %w", err)
		}
	}
}

// warmProxy requests each URL until the server answers it from cache.
func warmProxy(s *server, urls []string) error {
	for _, u := range urls {
		check := proxyKind(u).check
		for deadline := time.Now().Add(10 * time.Second); ; {
			r, err := get(s.addr, "/proxy?url="+u)
			if err == nil {
				err = check(r)
			}
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", u, err)
			}
			if r.status == 200 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warm-up %s: never cached", u)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// taskRecords is the icilk runtime's per-task timing buffer (maxRecords
// in internal/icilk/metrics.go). Until it is full it grows by doubling
// under one lock, and each doubling stalls every finishing task for
// tens of milliseconds; after that, recording is a capped no-op.
const taskRecords = 1 << 20

// fillTaskRecords runs fib jobs, about 2600 tasks each, until the server
// has spawned enough tasks to fill its record buffer, so that the
// measured phases see the steady state rather than a start-up transient
// whose stalls land on different requests in every run.
func fillTaskRecords(s *server, rep *report) error {
	fib := mixKinds{}
	fib.add(jobKind("fib", 2), 1)
	plan := connPlan{kinds: fib.kinds, deck: fib.deck, depth: 2, end: 250 * time.Millisecond}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		ph, err := runPhase(s, []connPlan{plan}, nil)
		if err != nil {
			return err
		}
		ph.checkOnly(rep)
		if ph.after.sched["spawns"] > taskRecords*1.1 {
			return nil
		}
	}
	return errors.New("warm-up: the server did not reach its task-record cap within 60s")
}

// phase is one stretch of load: every connection's operations, and the
// server's counters around it.
type phase struct {
	plans         []connPlan
	ops           [][]*op
	start         time.Time
	before, after srvStats
}

func runPhase(s *server, plans []connPlan, tr *tracer) (*phase, error) {
	ph := &phase{plans: plans, ops: make([][]*op, len(plans))}
	var err error
	if ph.before, err = scrape(s); err != nil {
		return nil, err
	}
	ph.start = time.Now().Add(5 * time.Millisecond)
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.ops[i], errs[i] = drive(s.addr, plans[i], ph.start, tr)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if ph.after, err = scrape(s); err != nil {
		return nil, err
	}
	return ph, nil
}

// each calls f on every operation with its kind.
func (ph *phase) each(f func(o *op, k kind)) {
	for i, ops := range ph.ops {
		for _, o := range ops {
			f(o, ph.plans[i].kinds[o.kind])
		}
	}
}

func (ph *phase) ok() int {
	n := 0
	ph.each(func(o *op, _ kind) {
		if o.err == nil {
			n++
		}
	})
	return n
}

// elapsed runs from the phase's start to its last response.
func (ph *phase) elapsed() time.Duration {
	var last time.Time
	ph.each(func(o *op, _ kind) {
		if o.last.After(last) {
			last = o.last
		}
	})
	return last.Sub(ph.start)
}

// checkOnly records the phase's failures as failed checks without
// counting its operations as attempted (warm-up and probe traffic).
func (ph *phase) checkOnly(rep *report) {
	ph.each(func(o *op, k kind) {
		if o.err != nil {
			rep.problem("%s: %v", k.path, o.err)
		}
	})
}

// e2e holds a phase's end-to-end numbers.
type e2e struct{ p50, p99, throughput float64 }

// endToEnd computes the end-to-end metrics: latency of the interactive
// connection (serve-sparse, serve-mixed) or of every request
// (serve-flood), and the completed requests per second of the
// interactive connection (serve-sparse), the batch connection
// (serve-mixed) or both (serve-flood).
func (ph *phase) endToEnd(workload string, rep *report) e2e {
	latConn, tpConn := -1, -1 // -1: every connection
	switch workload {
	case "serve-sparse":
		latConn, tpConn = 0, 0
	case "serve-mixed":
		latConn, tpConn = 0, 1
	}
	var lat sample
	done := 0
	for i, ops := range ph.ops {
		rep.count(ops, ph.plans[i].kinds)
		for _, o := range ops {
			if latConn < 0 || i == latConn {
				if o.err != nil {
					lat.addMiss()
				} else {
					lat.addDur(o.latency())
				}
			}
			if (tpConn < 0 || i == tpConn) && o.err == nil {
				done++
			}
		}
	}
	r := e2e{p50: lat.p50(), p99: lat.tail(), throughput: float64(done) / ph.elapsed().Seconds()}
	rep.metrics["p50_ms"], rep.metrics["p99_ms"], rep.metrics["throughput_per_s"] = r.p50, r.p99, r.throughput
	names := map[string][3]string{
		"serve-sparse": {"interactive_p50_ms", "interactive_p99_ms", "interactive goodput"},
		"serve-mixed":  {"interactive_p50_ms", "interactive_p99_ms", "batch_jobs_per_s"},
		"serve-flood":  {"flood p50", "flood_p99_ms", "flood_rps"},
	}[workload]
	rep.notef("p50_ms is %s, p99_ms (%s) is %s, over %d requests; throughput_per_s is %s (%d completed)",
		names[0], tailNote(len(lat)), names[1], len(lat), names[2], done)
	rep.metrics["samples"] = float64(len(lat))
	return r
}

// serveLayers computes the serve-layer metrics of a traced phase;
// source names the phase in the notes.
func (ph *phase) serveLayers(rep *report, source string) {
	var ttfb, late sample
	done := map[string]int{}
	ph.each(func(o *op, k kind) {
		if o.err == nil {
			done[k.class]++
			ttfb.addDur(o.ttfb())
			late.addDur(o.late())
		}
	})
	rep.metrics["serve.ttfb_ms.p50"] = ttfb.p50()
	rep.metrics["serve.ttfb_ms.p99"] = ttfb.tail()
	rep.metrics["serve.send_late_ms.p99"] = late.tail()
	rep.metrics["server.cpu_ms_per_op"] = ratio(float64((ph.after.cpu-ph.before.cpu).Microseconds())/1000, float64(ph.ok()))
	rep.metrics["serve.write_errors"] = float64(ph.after.writeErrs - ph.before.writeErrs)
	rep.metrics["serve.shed"] = float64(ph.after.shed - ph.before.shed)
	secs := ph.elapsed().Seconds()
	for _, c := range batchClasses {
		rep.metrics["class."+c+".per_s"] = float64(done[c]) / secs
	}
	ph.fillClasses(rep, source)
}

// fillClasses sets the interactive class rows this run has not measured
// yet from the phase's requests of that class.
func (ph *phase) fillClasses(rep *report, source string) {
	classes := map[string]*sample{}
	ph.each(func(o *op, k kind) {
		if classes[k.class] == nil {
			classes[k.class] = &sample{}
		}
		if o.err != nil {
			classes[k.class].addMiss()
		} else {
			classes[k.class].addDur(o.latency())
		}
	})
	for _, c := range interactiveClasses {
		s := classes[c]
		if _, done := rep.metrics["class."+c+".p50_ms"]; done || s == nil {
			continue
		}
		rep.metrics["class."+c+".p50_ms"] = s.p50()
		rep.metrics["class."+c+".p99_ms"] = s.tail()
		rep.notef("class %s: %d samples from %s", c, len(*s), source)
	}
}

// probe sends each interactive class probeEach times, one request at a
// time, to an otherwise idle server.
func probe(s *server, rng *rand.Rand, tr *tracer) (*phase, error) {
	url := fmt.Sprintf("http://site-%d.example/", rng.Intn(1000))
	if err := warmProxy(s, []string{url}); err != nil {
		return nil, err
	}
	m := interactiveMix(rng, []string{url})
	var deck []int
	for k := range m.kinds {
		for i := 0; i < probeEach; i++ {
			deck = append(deck, k)
		}
	}
	deck = shuffledDeck(rng, deck, 1)
	plan := connPlan{kinds: m.kinds}
	for i, k := range deck {
		plan.arrivals = append(plan.arrivals, arrival{at: time.Duration(i) * 10 * time.Millisecond, kind: k})
	}
	return runPhase(s, []connPlan{plan}, tr)
}

// overhead reports how much worse the traced half measured than the
// untraced half, as a fraction of the untraced value.
func overhead(rep *report, plain, traced e2e) {
	rep.metrics["trace.overhead.p50_frac"] = ratio(traced.p50-plain.p50, plain.p50)
	rep.metrics["trace.overhead.p99_frac"] = ratio(traced.p99-plain.p99, plain.p99)
	rep.metrics["trace.overhead.throughput_frac"] = ratio(plain.throughput-traced.throughput, plain.throughput)
}

// icilkCounter is one scheduler-counter metric, computed from the
// counter deltas (keys as SchedStats.String prints them) over ops
// completed requests or λ4i threads.
type icilkCounter struct {
	metric, unit string
	value        func(d map[string]float64, ops float64) float64
}

func perOp(key string) func(map[string]float64, float64) float64 {
	return func(d map[string]float64, ops float64) float64 { return ratio(d[key], ops) }
}

func total(key string) func(map[string]float64, float64) float64 {
	return func(d map[string]float64, _ float64) float64 { return d[key] }
}

var icilkCounters = []icilkCounter{
	{"icilk.wakes_per_op", "1/op", perOp("wakes")},
	{"icilk.parks_per_op", "1/op", perOp("parks")},
	{"icilk.promotions_per_op", "1/op", perOp("promotions")},
	{"icilk.master_kicks_per_op", "1/op", perOp("masterkicks")},
	{"icilk.spawns_per_op", "1/op", perOp("spawns")},
	{"icilk.inline_frac", "frac", func(d map[string]float64, _ float64) float64 { return ratio(d["inline"], d["spawns"]) }},
	{"icilk.helps_per_op", "1/op", perOp("helps")},
	{"icilk.steals_per_op", "1/op", perOp("steals")},
	{"icilk.pool_hit_frac", "frac", func(d map[string]float64, _ float64) float64 {
		return ratio(d["poolhits"], d["poolhits"]+d["poolmisses"])
	}},
	{"icilk.mutex_parks", "count", total("mutexparks")},
	{"icilk.rw_read_parks", "count", total("rwrparks")},
	{"icilk.rw_write_parks", "count", total("rwwparks")},
	{"icilk.rw_revokes", "count", total("rwrevokes")},
	{"icilk.inherits", "count", total("inherits")},
	{"icilk.transitive_boosts", "count", total("transboosts")},
	{"icilk.ceiling_violations", "count", total("ceilings")},
}

// icilkLayers sets the scheduler-counter metrics from the counters
// before and after a stretch of work that completed ops operations. A
// ceiling violation fails the run.
func icilkLayers(rep *report, after, before map[string]float64, ops float64) {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	for _, c := range icilkCounters {
		rep.metrics[c.metric] = c.value(d, ops)
	}
	if d["ceilings"] != 0 {
		rep.problem("icilk: %v ceiling violations", d["ceilings"])
	}
}

// parseSched reads SchedStats.String's key=value list.
func parseSched(s string) map[string]float64 {
	m := map[string]float64{}
	for _, kv := range strings.Fields(s) {
		k, v, _ := strings.Cut(kv, "=")
		var n float64
		fmt.Sscan(v, &n)
		m[k] = n
	}
	return m
}
