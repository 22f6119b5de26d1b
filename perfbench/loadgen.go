package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// kind is one request route the generator sends, with the check its
// response must pass.
type kind struct {
	class string // the X-Class the server must answer with, and the stats label
	path  string
	check func(r *httpResp) error
}

// httpResp is the client-side view of one response.
type httpResp struct {
	status int
	class  string
	prio   int
	body   []byte
}

// arrival is one open-loop request: its kind, due at offset at from the
// run's start.
type arrival struct {
	at   time.Duration
	kind int
}

// connPlan is what one connection sends. With arrivals set it is an open
// loop: each request is written when it is due, whatever the server is
// doing. Otherwise it is a closed loop that keeps depth requests
// outstanding, cycling through deck, until offset end.
type connPlan struct {
	kinds    []kind
	arrivals []arrival
	depth    int
	deck     []int
	end      time.Duration
}

// op is one request's life on a connection. Latency runs from due (the
// scheduled instant; for a closed loop, the instant a slot freed) to the
// last response byte, so a stall also charges the requests queued
// behind it.
type op struct {
	kind    int
	due     time.Time
	start   time.Time // write began
	written time.Time // write returned
	first   time.Time // first response byte seen
	last    time.Time // last response byte read
	err     error     // nil: a correct response
}

func (o *op) latency() time.Duration { return o.last.Sub(o.due) }
func (o *op) late() time.Duration    { return o.start.Sub(o.due) }
func (o *op) ttfb() time.Duration    { return o.first.Sub(o.written) }

var errDropped = errors.New("connection dropped before the response")

// readGrace bounds how long the reader waits for responses after the
// last request was due; a server that stalls longer fails the
// outstanding requests instead of hanging the benchmark.
const readGrace = 20 * time.Second

// drive runs one connection's plan from start and returns every request
// attempted, in send order. A writer goroutine sends each request when it
// is due; the reader pairs responses with requests in FIFO order, as
// HTTP/1.1 pipelining requires. When the connection drops, every request
// still outstanding fails, and so does every open-loop arrival not yet
// sent.
func drive(addr string, plan connPlan, start time.Time, tr *tracer) ([]*op, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	end := plan.end
	if len(plan.arrivals) > 0 {
		end = plan.arrivals[len(plan.arrivals)-1].at
	}
	if err := conn.SetReadDeadline(start.Add(end + readGrace)); err != nil {
		return nil, fmt.Errorf("set read deadline: %w", err)
	}

	capacity := len(plan.arrivals) // an open loop may have every arrival outstanding
	if capacity == 0 {
		capacity = plan.depth
	}
	pending := make(chan *op, capacity)
	slots := make(chan struct{}, plan.depth)
	for i := 0; i < plan.depth; i++ {
		slots <- struct{}{}
	}
	dead := make(chan struct{})
	var ops []*op
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pending)
		ops = writeLoop(conn, plan, start, pending, slots, dead)
	}()
	readLoop(conn, plan, pending, slots, dead, tr)
	wg.Wait()
	return ops, nil
}

// writeLoop sends the plan's requests and hands each to the reader.
func writeLoop(conn net.Conn, plan connPlan, start time.Time, pending chan<- *op, slots <-chan struct{}, dead <-chan struct{}) []*op {
	var ops []*op
	send := func(o *op) bool {
		ops = append(ops, o)
		o.start = time.Now()
		_, err := conn.Write(requestBytes(plan.kinds[o.kind].path))
		o.written = time.Now()
		if err != nil {
			o.err = fmt.Errorf("write: %w", err)
			return false
		}
		pending <- o
		return true
	}
	if len(plan.arrivals) > 0 {
		for i, a := range plan.arrivals {
			o := &op{kind: a.kind, due: start.Add(a.at)}
			if d := time.Until(o.due); d > 0 {
				select {
				case <-time.After(d):
				case <-dead:
				}
			}
			select {
			case <-dead:
				o.err = errDropped
				ops = append(ops, o)
			default:
				if send(o) {
					continue
				}
			}
			for _, rest := range plan.arrivals[i+1:] {
				ops = append(ops, &op{kind: rest.kind, due: start.Add(rest.at), err: errDropped})
			}
			return ops
		}
		return ops
	}
	stop := time.NewTimer(time.Until(start.Add(plan.end)))
	defer stop.Stop()
	for i := 0; ; i++ {
		select {
		case <-slots:
		case <-stop.C:
			return ops
		case <-dead:
			return ops
		}
		if !send(&op{kind: plan.deck[i%len(plan.deck)], due: time.Now()}) {
			return ops
		}
	}
}

// readLoop pairs responses with requests in send order. After a read
// error the byte stream is unframed, so it closes the connection and
// fails every request still outstanding.
func readLoop(conn net.Conn, plan connPlan, pending <-chan *op, slots chan<- struct{}, dead chan struct{}, tr *tracer) {
	br := bufio.NewReaderSize(conn, 64<<10)
	broken := false
	for o := range pending {
		if broken {
			o.err = errDropped
			continue
		}
		_, err := br.Peek(1)
		o.first = time.Now()
		var r *httpResp
		if err == nil {
			r, err = readResponse(br)
		}
		o.last = time.Now()
		if err != nil {
			o.err = fmt.Errorf("%w: %v", errDropped, err)
			broken = true
			close(dead)
			conn.Close()
			continue
		}
		o.err = plan.kinds[o.kind].check(r)
		if o.err == nil {
			req := tr.id()
			tr.record(0, req, req, "socket.write", o.start, o.written)
			tr.record(0, req, req, "server", o.written, o.first)
			tr.record(0, req, req, "socket.read", o.first, o.last)
			tr.record(req, 0, req, "loadgen", o.due, o.last)
		}
		if len(plan.arrivals) == 0 {
			slots <- struct{}{}
		}
	}
}

func requestBytes(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
}

// readResponse parses one HTTP/1.1 response framed by Content-Length.
func readResponse(br *bufio.Reader) (*httpResp, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	f := bytes.Fields(line)
	if len(f) < 2 || !bytes.HasPrefix(f[0], []byte("HTTP/1.")) {
		return nil, fmt.Errorf("bad status line %q", line)
	}
	r := &httpResp{prio: -1}
	if r.status, err = strconv.Atoi(string(f[1])); err != nil {
		return nil, fmt.Errorf("bad status line %q", line)
	}
	n := -1
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return nil, fmt.Errorf("bad header %q", line)
		}
		v = bytes.TrimSpace(v)
		switch string(bytes.ToLower(k)) {
		case "content-length":
			n, err = strconv.Atoi(string(v))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case "x-class":
			r.class = string(v)
		case "x-priority":
			if r.prio, err = strconv.Atoi(string(v)); err != nil {
				return nil, fmt.Errorf("bad X-Priority %q", v)
			}
		}
	}
	if n < 0 {
		return nil, errors.New("response without Content-Length")
	}
	r.body = make([]byte, n)
	if _, err := io.ReadFull(br, r.body); err != nil {
		return nil, err
	}
	return r, nil
}
