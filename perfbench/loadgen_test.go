package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer answers each request on a connection, in order, with its
// own path as the body. delay(i) holds the i-th response on the
// connection; closeAfter > 0 closes the connection once that many
// requests have been read, after answering only the first answer
// requests. maxQueued reports the deepest pipeline the server saw.
type echoServer struct {
	ln         net.Listener
	delay      func(i int) time.Duration
	answer     int
	closeAfter int
	maxQueued  atomic.Int64
}

func startEcho(t *testing.T, s *echoServer) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(c)
		}
	}()
	return ln.Addr().String()
}

func (s *echoServer) serve(c net.Conn) {
	defer c.Close()
	paths := make(chan string, 1024) // more than any test sends, so reading never waits on answering
	var queued atomic.Int64
	go func() {
		defer close(paths)
		br := bufio.NewReader(c)
		for n := 1; ; n++ {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			for {
				h, err := br.ReadString('\n')
				if err != nil || h == "\r\n" {
					break
				}
			}
			q := queued.Add(1)
			if q > s.maxQueued.Load() {
				s.maxQueued.Store(q)
			}
			paths <- strings.Fields(line)[1]
			if s.closeAfter > 0 && n == s.closeAfter {
				return
			}
		}
	}()
	i := 0
	for p := range paths {
		if s.answer > 0 && i >= s.answer {
			continue // drop it: the connection closes once the reader stops
		}
		if s.delay != nil {
			time.Sleep(s.delay(i))
		}
		body := p
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nX-Class: echo\r\nX-Priority: 3\r\n\r\n%s", len(body), body)
		queued.Add(-1)
		i++
	}
}

// echoKinds are n routes whose check demands the response echo the
// request's own path: a response paired with the wrong request fails.
func echoKinds(n int) []kind {
	ks := make([]kind, n)
	for i := range ks {
		path := fmt.Sprintf("/echo?i=%d", i)
		ks[i] = kind{class: "echo", path: path, check: func(r *httpResp) error {
			if r.status != 200 || r.class != "echo" || string(r.body) != path {
				return fmt.Errorf("response %d %q paired with request %s", r.status, r.body, path)
			}
			return nil
		}}
	}
	return ks
}

func countFailed(ops []*op) (ok, failed int) {
	for _, o := range ops {
		if o.err == nil {
			ok++
		} else {
			failed++
		}
	}
	return
}

func TestPipelinePairsResponsesInFIFOOrder(t *testing.T) {
	srv := &echoServer{delay: func(i int) time.Duration { return time.Duration(i%3) * time.Millisecond }}
	addr := startEcho(t, srv)
	const n = 40
	plan := connPlan{kinds: echoKinds(n)}
	for i := 0; i < n; i++ {
		plan.arrivals = append(plan.arrivals, arrival{at: time.Duration(i) * 100 * time.Microsecond, kind: i})
	}
	ops, err := drive(addr, plan, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, failed := countFailed(ops); ok != n || failed != 0 {
		t.Fatalf("%d ok, %d failed; want %d, 0 (first error: %v)", ok, failed, n, firstErr(ops))
	}
	if srv.maxQueued.Load() < 2 {
		t.Fatalf("the server never saw more than one request outstanding: the generator did not pipeline")
	}

	closed := connPlan{kinds: echoKinds(5), deck: []int{0, 1, 2, 3, 4}, depth: 4, end: 100 * time.Millisecond}
	ops, err = drive(addr, closed, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, failed := countFailed(ops); ok < 10 || failed != 0 {
		t.Fatalf("closed loop: %d ok, %d failed (first error: %v)", ok, failed, firstErr(ops))
	}
}

func TestLatencyRunsFromTheScheduledInstant(t *testing.T) {
	// The first response is held 40ms; the second request, due 1ms in,
	// is answered at once after it, yet its latency must include the wait
	// behind the first.
	srv := &echoServer{delay: func(i int) time.Duration {
		if i == 0 {
			return 40 * time.Millisecond
		}
		return 0
	}}
	addr := startEcho(t, srv)
	plan := connPlan{kinds: echoKinds(2), arrivals: []arrival{{0, 0}, {time.Millisecond, 1}}}
	ops, err := drive(addr, plan, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops[1].latency(); ops[1].err != nil || got < 35*time.Millisecond {
		t.Fatalf("second request: latency %v (err %v), want ≥ 35ms of head-of-line wait", got, ops[1].err)
	}

	// A run that starts 30ms in the past sends every request late, and
	// the lateness is part of the latency.
	ops, err = drive(addr, plan, time.Now().Add(-30*time.Millisecond), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ops {
		if o.late() < 28*time.Millisecond || o.latency() < o.late() {
			t.Fatalf("request %d: late %v, latency %v; want ≥ 28ms late and latency ≥ lateness", i, o.late(), o.latency())
		}
	}
}

func TestDroppedConnectionFailsEveryOutstandingRequest(t *testing.T) {
	srv := &echoServer{answer: 3, closeAfter: 6}
	addr := startEcho(t, srv)
	const n = 10
	plan := connPlan{kinds: echoKinds(n)}
	for i := 0; i < n; i++ {
		plan.arrivals = append(plan.arrivals, arrival{at: time.Duration(i) * time.Millisecond, kind: i})
	}
	ops, err := drive(addr, plan, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != n {
		t.Fatalf("%d operations recorded, want every one of the %d arrivals", len(ops), n)
	}
	if ok, failed := countFailed(ops); ok != 3 || failed != n-3 {
		t.Fatalf("%d ok, %d failed; want 3 answered and %d failed", ok, failed, n-3)
	}

	closed := connPlan{kinds: echoKinds(1), deck: []int{0}, depth: 4, end: 5 * time.Second}
	t0 := time.Now()
	ops, err = drive(addr, closed, t0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, failed := countFailed(ops); ok != 3 || failed == 0 || time.Since(t0) > 2*time.Second {
		t.Fatalf("closed loop: %d ok, %d failed after %v; want 3 ok, the rest failed, no wait for the end",
			ok, failed, time.Since(t0))
	}
}

func firstErr(ops []*op) error {
	for _, o := range ops {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}
