package main

import (
	"strings"
	"testing"
)

func TestEnvelopeDiffIgnoresOnlyTheCommit(t *testing.T) {
	a := envelope{Workload: "serve-sparse", Seed: 1, Seconds: 20, NProc: 2, GOMAXPROCS: 2,
		GoVersion: "go1.24.0", GitSHA: "aaa", ServerFlags: serverArgs(2)}
	b := a
	b.GitSHA, b.GitDirty = "bbb", true
	if d := envelopeDiff(a, b); len(d) != 0 {
		t.Fatalf("envelopes differing only in the commit reported %v", d)
	}
	b.NProc, b.ServerFlags = 4, serverArgs(4)
	d := envelopeDiff(a, b)
	if len(d) != 2 || !strings.HasPrefix(d[0], "nproc") || !strings.HasPrefix(d[1], "server flags") {
		t.Fatalf("got %v, want the nproc and server-flag mismatches", d)
	}
}
