package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// envelope records where and how a run was made. Two runs are
// comparable only when their envelopes agree on everything but the
// commit.
type envelope struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"seconds"`
	Trace       bool     `json:"trace"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	GitSHA      string   `json:"git_sha"`
	GitDirty    bool     `json:"git_dirty"`
	ServerFlags []string `json:"server_flags"`
}

func serverArgs(workers int) []string {
	return []string{"serve", "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers)}
}

func newEnvelope(cfg config) envelope {
	sha, dirty := gitState()
	return envelope{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.seconds.Seconds()), Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: sha, GitDirty: dirty, ServerFlags: serverArgs(cfg.workers),
	}
}

// gitState is the commit of the working directory, if it is the top of
// a git work tree, and whether tracked or unignored files differ from it.
func gitState() (string, bool) {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, _ := os.Getwd()
	if err != nil || filepath.Clean(strings.TrimSpace(string(top))) != filepath.Clean(wd) {
		return "unknown (not a git checkout)", false
	}
	sha, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (no commit)", false
	}
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(sha)), err != nil || len(st) > 0
}

// compareMain prints two saved records side by side. Any envelope
// difference other than the commit is flagged loudly and makes the exit
// status 1: numbers from different machines, Go versions, server flags
// or seeds are not a comparison of two commits.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := recs[0].Envelope, recs[1].Envelope
	mismatch := envelopeDiff(a, b)
	for _, m := range mismatch {
		fmt.Printf("!!! ENVELOPE MISMATCH: %s\n", m)
	}
	for i, e := range []envelope{a, b} {
		if e.GitDirty {
			fmt.Printf("!!! %s was measured on a dirty tree (%s)\n", args[i], e.GitSHA)
		}
	}
	fmt.Printf("%-36s %14s %14s %9s\n", "metric", a.GitSHA[:min(12, len(a.GitSHA))], b.GitSHA[:min(12, len(b.GitSHA))], "change")
	names := make([]string, 0, len(recs[0].Metrics))
	for n := range recs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := recs[0].Metrics[n], recs[1].Metrics[n]
		change := "n/a"
		if x.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/x.Value)
		}
		fmt.Printf("%-36s %14.6g %14.6g %9s %s\n", n, x.Value, y.Value, change, x.Unit)
	}
	if len(mismatch) > 0 {
		return 1
	}
	return 0
}

// envelopeDiff lists every field but the commit on which a and b differ.
func envelopeDiff(a, b envelope) []string {
	var out []string
	diff := func(field string, x, y any) {
		if fmt.Sprint(x) != fmt.Sprint(y) {
			out = append(out, fmt.Sprintf("%s %v vs %v", field, x, y))
		}
	}
	diff("workload", a.Workload, b.Workload)
	diff("seed", a.Seed, b.Seed)
	diff("seconds", a.Seconds, b.Seconds)
	diff("trace", a.Trace, b.Trace)
	diff("nproc", a.NProc, b.NProc)
	diff("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	diff("go version", a.GoVersion, b.GoVersion)
	diff("server flags", a.ServerFlags, b.ServerFlags)
	return out
}
