package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Load shapes of the serve workloads. The rates and depths are fixed so
// every seed offers the same load; the seed only moves arrival instants,
// the order of the request mix and the proxy URLs and mailboxes used.
const (
	sparseRate     = 200 // interactive requests per second, serve-sparse
	mixedRate      = 100 // interactive requests per second, serve-mixed
	mixedDepth     = 2   // batch requests kept outstanding, serve-mixed
	floodDepth     = 16  // requests kept outstanding per connection, serve-flood
	proxyURLs      = 8   // size of the cache-warm URL set
	setupLaunches  = 9   // server launches per run; setup_s is their median
	warmupDuration = time.Second
	probeEach      = 40 // requests per interactive class in the idle probe
)

// interactiveClasses and batchClasses are the per-class rows the traced
// run reports.
var (
	interactiveClasses = []string{"ping", "proxy", "jserver-matmul", "email-send"}
	batchClasses       = []string{"jserver-sw", "jserver-sort", "jserver-fib", "email-sort", "email-print"}
)

// checkResp builds a response check: the status, the X-Class and
// X-Priority the server's admission table assigns the route, and the
// body shape.
func checkResp(class string, prio int, body func(status int, b string) bool) func(*httpResp) error {
	return func(r *httpResp) error {
		if r.class != class || r.prio != prio {
			return fmt.Errorf("%s: got X-Class %q X-Priority %d, want %q %d", class, r.class, r.prio, class, prio)
		}
		if !body(r.status, string(r.body)) {
			return fmt.Errorf("%s: unexpected response %d %q", class, r.status, r.body)
		}
		return nil
	}
}

func exact(want string) func(int, string) bool {
	return func(st int, b string) bool { return st == 200 && b == want }
}

func jobKind(job string, prio int) kind {
	return kind{class: "jserver-" + job, path: "/jserver?job=" + job,
		check: checkResp("jserver-"+job, prio, func(st int, b string) bool {
			return st == 200 && strings.HasPrefix(b, job+" done in ")
		})}
}

func proxyKind(url string) kind {
	return kind{class: "proxy", path: "/proxy?url=" + url,
		check: checkResp("proxy", 3, func(st int, b string) bool {
			return (st == 200 && strings.HasPrefix(b, "<html>content of "+url+": ")) ||
				(st == 202 && b == "miss: fetch scheduled\n")
		})}
}

// mixKinds is a request mix: kinds, and the deck that fixes how often
// each is sent.
type mixKinds struct {
	kinds []kind
	deck  []int
}

func (m *mixKinds) add(k kind, weight int) {
	for i := 0; i < weight; i++ {
		m.deck = append(m.deck, len(m.kinds))
	}
	m.kinds = append(m.kinds, k)
}

// interactiveMix is ping, cache-hit proxy, matmul and email send in
// 4:4:1:1 proportions, with the seed choosing the URLs and the mailbox.
func interactiveMix(rng *rand.Rand, urls []string) mixKinds {
	var m mixKinds
	m.add(kind{class: "ping", path: "/ping", check: checkResp("ping", 3, exact("pong\n"))}, 4*len(urls))
	for _, u := range urls {
		m.add(proxyKind(u), 4)
	}
	m.add(jobKind("matmul", 3), len(urls))
	user := rng.Intn(8)
	m.add(kind{class: "email-send", path: fmt.Sprintf("/email?op=send&user=%d", user),
		check: checkResp("email-send", 2, exact("sent\n"))}, len(urls))
	return m
}

// batchMix is the background classes, one of each per deck.
func batchMix(rng *rand.Rand) mixKinds {
	var m mixKinds
	m.add(jobKind("sw", 0), 1)
	m.add(jobKind("sort", 1), 1)
	m.add(jobKind("fib", 2), 1)
	user := rng.Intn(8)
	m.add(kind{class: "email-sort", path: fmt.Sprintf("/email?op=sort&user=%d", user),
		check: checkResp("email-sort", 1, exact("sorted\n"))}, 1)
	m.add(kind{class: "email-print", path: fmt.Sprintf("/email?op=print&user=%d&id=3", user),
		check: checkResp("email-print", 1, exact("printed\n"))}, 1)
	return m
}

// floodMix is ping and cache-hit proxy, one to one.
func floodMix(urls []string) mixKinds {
	var m mixKinds
	m.add(kind{class: "ping", path: "/ping", check: checkResp("ping", 3, exact("pong\n"))}, len(urls))
	for _, u := range urls {
		m.add(proxyKind(u), 1)
	}
	return m
}

// shuffledDeck repeats the deck n times, each copy shuffled: the
// proportions are exact per copy, only the order depends on the seed.
func shuffledDeck(rng *rand.Rand, deck []int, n int) []int {
	out := make([]int, 0, n*len(deck))
	for i := 0; i < n; i++ {
		d := append([]int(nil), deck...)
		rng.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
		out = append(out, d...)
	}
	return out
}

// openPlan is rate*dur arrivals spread uniformly at random over dur (a
// Poisson process conditioned on its count, so every seed offers the
// same number of requests), with kinds dealt from the mix's shuffled
// deck.
func openPlan(rng *rand.Rand, m mixKinds, rate float64, dur time.Duration) connPlan {
	n := int(rate * dur.Seconds())
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	deck := shuffledDeck(rng, m.deck, n/len(m.deck)+1)
	arr := make([]arrival, n)
	for i := range arr {
		arr[i] = arrival{at: at[i], kind: deck[i]}
	}
	return connPlan{kinds: m.kinds, arrivals: arr}
}

func closedPlan(rng *rand.Rand, m mixKinds, depth int, dur time.Duration) connPlan {
	return connPlan{kinds: m.kinds, depth: depth, deck: shuffledDeck(rng, m.deck, 64), end: dur}
}

// server is one icilk-serve process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed when the server's stdout reaches EOF
}

// launch starts the server in its shipped configuration (only the
// listen address and the worker count are set) and returns once it has
// answered a correct /ping, with the time that took.
func launch(bin string, workers int) (*server, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, serverArgs(workers)...)
	cmd.Stderr = os.Stderr
	// If the benchmark dies, the kernel kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addrc <- strings.Fields(rest)[0]
				break
			}
		}
		close(addrc)
		io.Copy(io.Discard, out) // keep the pipe drained until the server exits
	}()
	select {
	case s.addr = <-addrc:
	case <-time.After(30 * time.Second):
	}
	if s.addr == "" {
		s.stop()
		return nil, 0, errors.New("server did not report its listen address")
	}
	ping := checkResp("ping", 3, exact("pong\n"))
	for deadline := time.Now().Add(30 * time.Second); ; {
		r, err := get(s.addr, "/ping")
		if err == nil {
			err = ping(r)
		}
		if err == nil {
			return s, time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server never answered /ping: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, the server's graceful shutdown, and waits for the
// process to exit; a server that has not exited after 10s is killed.
// icilk-serve installs its SIGTERM handler only after it starts
// listening, so a server stopped right after its first /ping may die of
// the signal itself; that is a stop too.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	// The stdout reader sees EOF when the process exits; Wait may only
	// run after it has.
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
		s.cmd.Wait()
		return errors.New("server ignored SIGTERM for 10s and was killed")
	}
	err := s.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// get sends one request on a fresh connection.
func get(addr, path string) (*httpResp, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return nil, err
	}
	if _, err := c.Write(requestBytes(path)); err != nil {
		return nil, err
	}
	return readResponse(bufio.NewReader(c))
}

// srvStats is the part of /stats the benchmark reads, plus the
// process's CPU time from /proc.
type srvStats struct {
	writeErrs int64
	shed      int64
	sched     map[string]float64
	cpu       time.Duration
}

func scrape(s *server) (srvStats, error) {
	var st srvStats
	r, err := get(s.addr, "/stats")
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	if r.status != 200 {
		return st, fmt.Errorf("GET /stats: status %d", r.status)
	}
	inShed := false
	for _, line := range strings.Split(string(r.body), "\n") {
		if inShed && strings.HasPrefix(line, "  ") {
			f := strings.Fields(line)
			n, _ := strconv.ParseInt(f[len(f)-1], 10, 64)
			st.shed += n
			continue
		}
		inShed = line == "shed per class:"
		if v, ok := strings.CutPrefix(line, "write errors: "); ok {
			st.writeErrs, _ = strconv.ParseInt(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(line, "scheduler: "); ok {
			st.sched = parseSched(v)
		}
	}
	if len(st.sched) == 0 {
		return st, errors.New("GET /stats: no scheduler line")
	}
	st.cpu, err = procCPU(s.cmd.Process.Pid)
	return st, err
}

// userHZ is the kernel's clock-tick rate for /proc/<pid>/stat times.
const userHZ = 100

// procCPU is a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// rssMB is a process's resident set (VmRSS) in MiB.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// cpuSteal is the share of the machine's CPU time its hypervisor took
// away since the previous reading, from /proc/stat; it tells a slow run
// on a busy host from a slow program.
type cpuSteal struct{ steal, total float64 }

func readSteal() cpuSteal {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSteal{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var c cpuSteal
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

func (c cpuSteal) since(prev cpuSteal) float64 { return ratio(c.steal-prev.steal, c.total-prev.total) }

// rssWatch samples a process's resident set every 50ms while the
// measured part of a run goes on. Its peak excludes set-up and warm-up,
// whose transients (the runtime's task-record buffer doubling, above
// all) would otherwise decide the number.
type rssWatch struct {
	stop  chan struct{}
	done  chan struct{}
	steal cpuSteal
	peak  float64
	err   error
}

func watchRSS(pid int) *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{}), steal: readSteal()}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := rssMB(pid)
			if err != nil {
				w.err = err
				return
			}
			w.peak = max(w.peak, mb)
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops sampling, notes the CPU steal over the watch, and returns
// the peak in MiB.
func (w *rssWatch) finish(rep *report) (float64, error) {
	close(w.stop)
	<-w.done
	rep.notef("cpu steal during the measured part: %.1f%%", 100*readSteal().since(w.steal))
	return w.peak, w.err
}
