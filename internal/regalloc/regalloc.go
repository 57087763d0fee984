// Package regalloc implements mcc's global register allocator: a
// Chaitin-style graph-coloring allocator (Table 1 of the paper: "global
// register allocation (using graph coloring)" and "register coalescing")
// with Briggs-style optimistic coloring and conservative coalescing, plus
// spilling to frame slots.
//
// Allocation is what makes source variables *nonresident*: once variables
// share physical registers, a variable's register only holds its value
// inside the variable's live range. The allocator therefore records each
// variable's allocated location in Func.VarLoc; the per-point residence
// test itself is performed by the debugger analyses (package core) from
// the DefObj tags that survive on the final instructions.
//
// Moves that copy source variables are never coalesced away: deleting them
// would erase the variable's defining instruction, which the debugger's
// bookkeeping needs. Temp-to-temp moves are coalesced normally.
package regalloc

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/mach"
)

// AllocateFunc runs register allocation for one function.
func AllocateFunc(f *mach.Func) error {
	a := &allocator{f: f, spillTemp: map[int]bool{}}
	f.VarLoc = make([]mach.Loc, f.NumVars)
	if err := a.run(mach.IntClass, mach.NumIntRegs); err != nil {
		return err
	}
	if err := a.run(mach.FloatClass, mach.NumFloatRegs); err != nil {
		return err
	}
	f.Allocated = true
	return nil
}

type allocator struct {
	f         *mach.Func
	spillTemp map[int]bool // vregs created by spill code: never re-spill

	// Storage reused across graph rebuilds.
	g    igraph
	seen bitset
}

// run allocates one register class.
func (a *allocator) run(class mach.RegClass, k int) error {
	spilled := map[int]int64{} // vreg -> frame offset
	for round := 0; round < 24; round++ {
		// Coalesce to a fixed point, rebuilding the graph after each merge.
		var g *igraph
		for i := 0; ; i++ {
			g = a.buildGraph(class)
			if i > 10_000 || !a.coalesce(g, class, k) {
				break
			}
		}
		toSpill := g.color(k)
		if len(toSpill) == 0 {
			a.rewrite(g, class, spilled)
			return nil
		}
		for _, v := range toSpill {
			if a.spillTemp[v] {
				return fmt.Errorf("regalloc: %s: spill temp v%d needs spilling again (class %d)",
					a.f.Name, v, class)
			}
			off := a.f.FrameSize
			a.f.FrameSize += 4
			spilled[v] = off
			a.insertSpillCode(v, class, off)
		}
	}
	return fmt.Errorf("regalloc: %s: did not converge", a.f.Name)
}

// ---------------------------------------------------------------- liveness

// RegKey encodes a register operand (class + number) as a dense bit index,
// so int and float registers never collide in liveness bit vectors.
func RegKey(o mach.Opd) int { return int(o.R)*2 + int(o.Class) }

// KeyReg decodes a RegKey back into (number, class).
func KeyReg(k int) (int, mach.RegClass) { return k / 2, mach.RegClass(k % 2) }

// regSpace bounds the register numbers of f, per class.
func regSpace(f *mach.Func) int { return f.NumVregs + mach.NumIntRegs + mach.NumFloatRegs + 2 }

// Liveness computes per-block live-in/out over all registers of f, indexed
// by RegKey.
func Liveness(f *mach.Func) ([]*dataflow.BitSet, []*dataflow.BitSet) {
	g := f.Graph()
	n := 2 * regSpace(f)
	use := make([]*dataflow.BitSet, g.N)
	def := make([]*dataflow.BitSet, g.N)
	var buf []mach.Opd
	for i, b := range f.Blocks {
		use[i] = dataflow.NewBitSet(n)
		def[i] = dataflow.NewBitSet(n)
		for _, in := range b.Instrs {
			buf = in.Uses(buf[:0])
			for _, o := range buf {
				if !def[i].Has(RegKey(o)) {
					use[i].Set(RegKey(o))
				}
			}
			if d := in.Def(); d.IsReg() {
				def[i].Set(RegKey(d))
			}
		}
	}
	p := dataflow.Problem{Graph: g, Dir: dataflow.Backward, Meet: dataflow.Union,
		Bits: n, Gen: use, Kill: def}
	res := p.Solve()
	return res.In, res.Out
}

// ---------------------------------------------------------------- graph

// igraph is the interference graph of one register class, stored densely
// by vreg number: every per-node attribute is a slice indexed by vreg, the
// edge set is an n×n bit matrix for membership tests beside per-node
// neighbor lists for iteration.
type igraph struct {
	n      int       // vreg numbers are < n
	member bitset    // vregs that are graph nodes
	adj    [][]int32 // neighbor lists
	edge   bitset    // bit x*n+y: x and y interfere
	cost   []float64 // spill cost, weighted by loop depth
	colors []int     // assigned register, or -1
}

// reset empties g for a register space of n, reusing its storage.
func (g *igraph) reset(n int) {
	g.n = n
	g.member = g.member.resize(n)
	g.edge = g.edge.resize(n * n)
	if cap(g.adj) < n {
		g.adj = make([][]int32, n)
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.cost = resize(g.cost, n)
	g.colors = resize(g.colors, n)
	for i := range g.colors {
		g.colors[i] = -1
	}
}

func (g *igraph) addNode(r int) { g.member.set(r) }

func (g *igraph) interferes(x, y int) bool { return g.edge.has(x*g.n + y) }

func (g *igraph) addEdge(x, y int) {
	if x == y || g.interferes(x, y) {
		return
	}
	g.addNode(x)
	g.addNode(y)
	g.edge.set(x*g.n + y)
	g.edge.set(y*g.n + x)
	g.adj[x] = append(g.adj[x], int32(y))
	g.adj[y] = append(g.adj[y], int32(x))
}

func (g *igraph) degree(n int) int { return len(g.adj[n]) }

// colorOf reports the register assigned to vreg r, if any.
func (g *igraph) colorOf(r int) (int, bool) {
	if g.colors[r] < 0 {
		return 0, false
	}
	return g.colors[r], true
}

// buildGraph rebuilds the interference graph of one class into a.g.
func (a *allocator) buildGraph(class mach.RegClass) *igraph {
	f := a.f
	g := &a.g
	g.reset(regSpace(f))
	a.seen = a.seen.resize(g.n)

	// Node discovery and spill costs (weighted by loop depth).
	var buf []mach.Opd
	for _, b := range f.Blocks {
		w := math.Pow(10, float64(b.LoopDepth))
		for _, in := range b.Instrs {
			ops := in.Uses(buf[:0])
			if d := in.Def(); d.IsReg() {
				ops = append(ops, d)
			}
			for _, o := range ops {
				if o.Class == class {
					g.addNode(int(o.R))
					g.cost[o.R] += w
				}
			}
		}
	}
	// A spill temp lives only from its reload to its use (or its def to
	// its store): spilling it again frees nothing, so it is never a spill
	// candidate while any other node is left.
	for v := range a.spillTemp {
		if g.member.has(v) {
			g.cost[v] = math.Inf(1)
		}
	}

	_, liveOut := Liveness(f)
	for bi, b := range f.Blocks {
		live := liveOut[bi].Copy()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			d := in.Def()
			if d.IsReg() && d.Class == class {
				live.ForEach(func(key int) {
					l, cls := KeyReg(key)
					if cls != class {
						return
					}
					// A move does not interfere with its source.
					if in.Op == mach.MOV && in.A.IsReg() && in.A.Class == class && int(in.A.R) == l {
						return
					}
					g.addEdge(int(d.R), l)
				})
			}
			if d.IsReg() {
				live.Clear(RegKey(d))
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				live.Set(RegKey(u))
			}
		}
	}
	return g
}

// ---------------------------------------------------------------- coalesce

// coalesce merges one batch of temp-to-temp moves using the Briggs
// conservative criterion; returns true if anything was merged (the caller
// rebuilds the graph).
func (a *allocator) coalesce(g *igraph, class mach.RegClass, k int) bool {
	f := a.f
	merged := false
	for _, b := range f.Blocks {
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			if in.Op != mach.MOV || !in.A.IsReg() || !in.Dst.IsReg() {
				continue
			}
			if in.Dst.Class != class || in.A.Class != class {
				continue
			}
			dst, src := int(in.Dst.R), int(in.A.R)
			if dst == src {
				b.RemoveAt(pos)
				pos--
				merged = true
				continue
			}
			// Preserve source-variable defining moves and recovery points.
			if dst < f.NumVars || src < f.NumVars {
				continue
			}
			if in.ReplacedVar != 0 || in.Recover().Var != 0 {
				continue
			}
			if g.interferes(dst, src) {
				continue
			}
			// Briggs: merged node must have < k significant neighbors.
			if a.significantNeighbors(g, dst, src, k) >= k {
				continue
			}
			// Merge src into dst everywhere; drop the move.
			b.RemoveAt(pos)
			pos--
			old := mach.Opd{Kind: mach.Reg, Class: class, R: int32(src)}
			new := mach.Opd{Kind: mach.Reg, Class: class, R: int32(dst)}
			for _, bb := range f.Blocks {
				for _, ii := range bb.Instrs {
					ii.ReplaceReg(old, new, true)
				}
			}
			return true // rebuild graph after each merge for safety
		}
	}
	return merged
}

// significantNeighbors counts the nodes of degree >= k adjacent to x or y.
// It leaves a.seen empty, as it found it.
func (a *allocator) significantNeighbors(g *igraph, x, y, k int) int {
	sig := 0
	for _, n := range g.adj[x] {
		a.seen.set(int(n))
		if g.degree(int(n)) >= k {
			sig++
		}
	}
	for _, n := range g.adj[y] {
		if !a.seen.has(int(n)) && g.degree(int(n)) >= k {
			sig++
		}
	}
	for _, n := range g.adj[x] {
		a.seen.clear(int(n))
	}
	return sig
}

// ---------------------------------------------------------------- color

// color runs simplify/select with optimistic coloring; returns the list of
// vregs that must be spilled (empty on success, in which case every node
// has a color). k must not exceed 64 (mach has 18 integer and 12 float
// registers).
func (g *igraph) color(k int) []int {
	// Working state: current degree, and the nodes of degree < k still in
	// the graph, so simplify's pick is a find-first-set.
	deg := make([]int, g.n)
	removed, low := bitset(nil).resize(g.n), bitset(nil).resize(g.n)
	remaining := 0
	for n := range g.n {
		if !g.member.has(n) {
			continue
		}
		deg[n] = g.degree(n)
		if deg[n] < k {
			low.set(n)
		}
		remaining++
	}
	stack := make([]int, 0, remaining)

	for ; remaining > 0; remaining-- {
		// Simplify: pick any node with degree < k (deterministic order:
		// lowest vreg number).
		pick := low.first()
		if pick < 0 {
			// Potential spill: lowest cost/degree, ties to the lowest vreg.
			bestScore := math.Inf(1)
			for n := range g.n {
				if !g.member.has(n) || removed.has(n) {
					continue
				}
				d := deg[n]
				if d == 0 {
					d = 1
				}
				score := g.cost[n] / float64(d)
				if score < bestScore || (score == bestScore && pick == -1) {
					pick, bestScore = n, score
				}
			}
		}
		removed.set(pick)
		low.clear(pick)
		for _, m := range g.adj[pick] {
			if !removed.has(int(m)) {
				deg[m]--
				if deg[m] < k {
					low.set(int(m))
				}
			}
		}
		stack = append(stack, pick)
	}

	// Select.
	var spills []int
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		var used uint64
		for _, m := range g.adj[n] {
			if c := g.colors[m]; c >= 0 {
				used |= 1 << uint(c)
			}
		}
		c := bits.TrailingZeros64(^used)
		if c >= k {
			spills = append(spills, n)
			continue
		}
		g.colors[n] = c
	}
	return spills
}

// ---------------------------------------------------------------- bitset

// bitset is a dense set of small non-negative ints, reused across graph
// rebuilds.
type bitset []uint64

// resize returns an empty set with room for n bits, reusing s's storage.
func (s bitset) resize(n int) bitset {
	return resize(s, (n+63)/64)
}

func (s bitset) set(i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s bitset) clear(i int)    { s[i/64] &^= 1 << (uint(i) % 64) }
func (s bitset) has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// first returns the lowest member, or -1 if the set is empty.
func (s bitset) first() int {
	for i, w := range s {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ---------------------------------------------------------------- spill

// insertSpillCode rewrites every occurrence of vreg v through a frame slot.
func (a *allocator) insertSpillCode(v int, class mach.RegClass, off int64) {
	f := a.f
	loadOp, storeOp := mach.LWFP, mach.SWFP
	if class == mach.FloatClass {
		loadOp, storeOp = mach.FLWFP, mach.FSWFP
	}
	old := mach.Opd{Kind: mach.Reg, Class: class, R: int32(v)}
	for _, b := range f.Blocks {
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			usesV := false
			var buf []mach.Opd
			for _, u := range in.Uses(buf) {
				if u.Same(old) {
					usesV = true
					break
				}
			}
			defsV := in.Def().Same(old) && in.Def().IsReg()
			if !usesV && !defsV {
				if c := in.Cold; c != nil && c.MarkAlias.Same(old) {
					// The alias value now lives in a slot the debugger
					// cannot name through a register: drop the alias.
					c.MarkAlias = mach.Opd{}
				}
				continue
			}
			if usesV {
				t := f.NewVreg(class)
				a.spillTemp[int(t.R)] = true
				ld := &mach.Instr{Op: loadOp, Dst: t, Off: off, Stmt: in.Stmt, OrigIdx: in.OrigIdx}
				insertAt(b, pos, ld)
				pos++
				in.ReplaceReg(old, t, false)
			}
			if defsV {
				t := f.NewVreg(class)
				a.spillTemp[int(t.R)] = true
				in.ReplaceReg(old, t, true) // only the def remains
				st := &mach.Instr{Op: storeOp, B: t, Off: off, Stmt: in.Stmt, OrigIdx: in.OrigIdx}
				insertAt(b, pos+1, st)
				pos++
			}
		}
	}
}

func insertAt(b *mach.Block, pos int, in *mach.Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[pos+1:], b.Instrs[pos:])
	b.Instrs[pos] = in
}

// ---------------------------------------------------------------- rewrite

// pruneStaleAliases drops MarkAlias operands that name a vreg which is
// not live at the marker's position. The coloring guarantee — the
// assigned physical register holds the vreg's value — covers only the
// vreg's live range; markers deliberately do not extend live ranges
// (an alias must never keep a value alive), so a marker can sit past
// the aliased vreg's last use, where the register may already have
// been reused for an unrelated value. The optimizer's marker
// bookkeeping cannot catch this: it runs on IR before allocation, where
// physical register reuse does not exist yet. Recovering through such an alias would fabricate
// a value, so it is degraded to no recovery instead. Must run before
// operands are rewritten to physical numbers.
func (a *allocator) pruneStaleAliases(class mach.RegClass) {
	f := a.f
	any := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mach.MARKDEAD && isRegOf(in.MarkAlias(), class) {
				any = true
			}
		}
	}
	if !any {
		return
	}
	_, liveOut := Liveness(f)
	var buf []mach.Opd
	for bi, b := range f.Blocks {
		live := liveOut[bi].Copy()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			// Markers have no defs or uses, so live-after equals
			// live-at for them; check before applying effects.
			if in.Op == mach.MARKDEAD && isRegOf(in.MarkAlias(), class) && !live.Has(RegKey(in.MarkAlias())) {
				in.Cold.MarkAlias = mach.Opd{}
			}
			if d := in.Def(); d.IsReg() {
				live.Clear(RegKey(d))
			}
			buf = in.Uses(buf[:0])
			for _, o := range buf {
				live.Set(RegKey(o))
			}
		}
	}
}

// isRegOf reports whether o is a register of the class.
func isRegOf(o mach.Opd, class mach.RegClass) bool { return o.Kind == mach.Reg && o.Class == class }

// rewrite maps vregs of the class to their physical registers and records
// variable locations.
func (a *allocator) rewrite(g *igraph, class mach.RegClass, spilled map[int]int64) {
	f := a.f
	a.pruneStaleAliases(class)
	phys := func(o *mach.Opd) {
		if o.Kind == mach.Reg && o.Class == class {
			if c, ok := g.colorOf(int(o.R)); ok {
				o.R = int32(c)
			} else {
				// Unconstrained (never live simultaneously with anything,
				// or dead): give it register 0.
				o.R = 0
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			phys(&in.Dst)
			phys(&in.A)
			phys(&in.B)
			c := in.Cold
			if c == nil {
				continue
			}
			for i := range c.Args {
				phys(&c.Args[i])
			}
			for i := range c.PrintFmt {
				if !c.PrintFmt[i].IsStr {
					phys(&c.PrintFmt[i].Val)
				}
			}
			// A marker's alias operand names the register holding an
			// eliminated value. If that vreg got no color (its defs were
			// all removed or it was spilled), the alias is unrecoverable
			// through a register: drop it rather than point at a wrong
			// physical register.
			if isRegOf(c.MarkAlias, class) {
				if r, ok := g.colorOf(int(c.MarkAlias.R)); ok {
					c.MarkAlias.R = int32(r)
				} else {
					c.MarkAlias = mach.Opd{}
				}
			}
		}
	}
	// Record variable locations.
	for vid := 0; vid < f.NumVars; vid++ {
		obj := f.Decl.Locals[vid]
		cls := mach.IntClass
		if ast.IsFloat(obj.Type) {
			cls = mach.FloatClass
		}
		if cls != class {
			continue
		}
		if off, ok := spilled[vid]; ok {
			f.VarLoc[vid] = mach.Loc{Kind: mach.LocSpill, Class: class, Off: off}
		} else if c, ok := g.colorOf(vid); ok {
			f.VarLoc[vid] = mach.Loc{Kind: mach.LocReg, Class: class, R: c}
		} else {
			f.VarLoc[vid] = mach.Loc{Kind: mach.LocNone}
		}
	}
}
