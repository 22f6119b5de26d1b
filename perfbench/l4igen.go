package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// l4iProgram is one generated λ4i program and the value its main must
// produce under every schedule.
type l4iProgram struct {
	src     string
	want    int
	threads int // λ4i threads one run creates, main included
}

// treeShape is a fork-join tree: main spawns the root, every node at
// depth i < len(fan) spawns fan[i] children and joins them, and the
// nodes at depth len(fan) are the leaves. Depths below hiFrom run at
// priority lo, the rest at hi, so a thread only ever touches threads of
// its own or a higher priority.
type treeShape struct {
	fan    []int
	hiFrom int
	// args[i][j] is the argument node i passes child j: a constant, or
	// -1 for the node's own argument.
	args    [][]int
	leafC   int // a leaf with argument 0 returns leafC
	k       int // the value every leaf writes to the shared cell
	rootArg int
}

func (t treeShape) threads() int {
	n, level := 2, 1 // main and the root
	for _, f := range t.fan {
		level *= f
		n += level
	}
	return n
}

// value mirrors the program's arithmetic: λ4i has no addition, so the
// combine step selects (ifz v {acc ; k . k} is v == 0 ? acc : v-1).
func (t treeShape) value(depth, n int) int {
	if depth == len(t.fan) {
		if n == 0 {
			return t.leafC
		}
		return n - 1
	}
	acc := 0
	for j, a := range t.args[depth] {
		if a < 0 {
			a = n
		}
		v := t.value(depth+1, a)
		switch {
		case j == 0:
			acc = v
		case v != 0:
			acc = v - 1
		}
	}
	return acc
}

// randomShape draws fan-outs from {2, 3, 4, 6} until the tree holds
// target threads within tol, then the priorities, arguments and
// constants.
func randomShape(rng *rand.Rand, target, tol int) treeShape {
	fans := []int{2, 3, 4, 6}
	var t treeShape
	for {
		t.fan = t.fan[:0]
		for t.threads() < target-tol {
			t.fan = append(t.fan, fans[rng.Intn(len(fans))])
		}
		if len(t.fan) > 0 && t.threads() <= target+tol {
			break
		}
	}
	t.hiFrom = 1 + rng.Intn(len(t.fan)) // main and the root stay lo, the leaves are hi
	t.args = make([][]int, len(t.fan))
	for i, f := range t.fan {
		for j := 0; j < f; j++ {
			a := rng.Intn(5) - 1
			t.args[i] = append(t.args[i], a)
		}
	}
	t.leafC = rng.Intn(6)
	t.k = 1 + rng.Intn(9)
	t.rootArg = rng.Intn(6)
	return t
}

func (t treeShape) prio(depth int) string {
	if depth >= t.hiFrom {
		return "hi"
	}
	return "lo"
}

// source writes the program. Each depth is one let-bound function
// nat -> nat cmd[p]; the leaves hit the shared cell r with cas, ! and
// :=, and main reads r after joining the root.
func (t treeShape) source() string {
	var b strings.Builder
	b.WriteString("priority lo\npriority hi\norder lo < hi\n\nmain : nat @ lo = {\n  dcl r : nat := 0 in\n")
	d := len(t.fan)
	p := t.prio(d)
	fmt.Fprintf(&b, "  let l%d = fn n : nat => cmd[%s]{\n", d, p)
	fmt.Fprintf(&b, "    a <- cmd[%s]{ cas(r, 0, %d) };\n", p, t.k)
	fmt.Fprintf(&b, "    b <- cmd[%s]{ !r };\n", p)
	fmt.Fprintf(&b, "    w <- cmd[%s]{ r := %d };\n", p, t.k)
	fmt.Fprintf(&b, "    ret (ifz n { %d ; k . k })\n  } in\n", t.leafC)
	for i := d - 1; i >= 0; i-- {
		p, q := t.prio(i), t.prio(i+1)
		fmt.Fprintf(&b, "  let l%d = fn n : nat => cmd[%s]{\n", i, p)
		for j, a := range t.args[i] {
			arg := "n"
			if a >= 0 {
				arg = fmt.Sprint(a)
			}
			fmt.Fprintf(&b, "    h%d <- cmd[%s]{ fcreate[%s; nat] { x <- l%d %s; ret x } };\n", j, p, q, i+1, arg)
		}
		for j := range t.args[i] {
			fmt.Fprintf(&b, "    v%d <- cmd[%s]{ ftouch h%d };\n", j, p, j)
		}
		fmt.Fprintf(&b, "    c0 <- cmd[%s]{ ret v0 };\n", p)
		for j := 1; j < len(t.args[i]); j++ {
			fmt.Fprintf(&b, "    c%d <- cmd[%s]{ ret (ifz v%d { c%d ; k . k }) };\n", j, p, j, j-1)
		}
		fmt.Fprintf(&b, "    ret c%d\n  } in\n", len(t.args[i])-1)
	}
	fmt.Fprintf(&b, "  h <- cmd[lo]{ fcreate[%s; nat] { x <- l0 %d; ret x } };\n", t.prio(0), t.rootArg)
	b.WriteString("  t <- cmd[lo]{ ftouch h };\n  v <- cmd[lo]{ !r };\n  ret (ifz t { v ; k . k })\n}\n")
	return b.String()
}

// genProgram writes one well-typed fork-join program of about target
// threads.
func genProgram(rng *rand.Rand, target, tol int) l4iProgram {
	t := randomShape(rng, target, tol)
	want := t.value(0, t.rootArg)
	if want == 0 {
		want = t.k // main returns the cell when the tree's value is 0
	} else {
		want--
	}
	return l4iProgram{src: t.source(), want: want, threads: t.threads()}
}
