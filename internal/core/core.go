// Package core implements the paper's contribution: the data-flow
// algorithm that classifies every source variable at a breakpoint in
// globally scalar-optimized code as uninitialized, nonresident, current,
// noncurrent, or suspect, together with recovery of eliminated values.
//
// The classifier runs on the final machine-level representation, consuming
// the bookkeeping the compiler threaded through optimization (§3):
//
//   - hoisted/sunk annotations on inserted assignments,
//   - MarkDead / MarkAvail markers where source assignments were deleted,
//   - ReplacedVar annotations on expressions that replaced variable
//     fetches and linear Recover annotations from induction-variable
//     elimination (both feed *recovery*, §2.5),
//   - DefObj tags identifying source-variable definitions after
//     register allocation.
//
// Two data-flow problems drive the endangerment decision (Definitions 1
// and 2 of the paper), each solved in a may (some-path) and must
// (all-paths) variant with the same gen/kill sets:
//
//   - hoist reach: generated by a hoisted assignment to V, killed by the
//     MarkAvail marker of its redundant copy and by any real assignment
//     to V. Must-reach ⇒ V noncurrent (premature); may-reach ⇒ suspect.
//   - dead reach: generated by the MarkDead marker of a deleted
//     assignment to V, killed by any real assignment to V and by recovery
//     expressions. Must-reach ⇒ noncurrent (stale); may ⇒ suspect —
//     unless a recovery source is available, in which case the expected
//     value is reconstructible and V is reported current (recovered).
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/debuginfo"
	"repro/internal/mach"
)

// fieldsClassified counts per-field verdicts issued for struct members
// across the process lifetime (served as the fields_classified stat).
var fieldsClassified atomic.Int64

// FieldsClassifiedCount returns the number of struct-field classifications
// issued so far.
func FieldsClassifiedCount() int64 { return fieldsClassified.Load() }

// State is the debugger's classification of a variable at a breakpoint
// (Figure 1 of the paper).
type State int

// Classification states.
const (
	Current State = iota
	Uninitialized
	Nonresident
	Noncurrent
	Suspect
)

func (s State) String() string {
	switch s {
	case Current:
		return "current"
	case Uninitialized:
		return "uninitialized"
	case Nonresident:
		return "nonresident"
	case Noncurrent:
		return "noncurrent"
	case Suspect:
		return "suspect"
	}
	return "?"
}

// Cause explains what endangered the variable.
type Cause int

// Causes of endangerment.
const (
	NoCause Cause = iota
	ByHoisting
	ByDeadCodeElim
	ByScheduling
)

func (c Cause) String() string {
	switch c {
	case ByHoisting:
		return "code hoisting"
	case ByDeadCodeElim:
		return "dead code elimination"
	case ByScheduling:
		return "instruction scheduling"
	}
	return ""
}

// RecoveryKind tells how an eliminated value can be reconstructed.
type RecoveryKind int

// Recovery kinds.
const (
	NoRecovery    RecoveryKind = iota
	RecoverAlias               // value aliased in a register
	RecoverConst               // value is a known constant
	RecoverLinear              // V = (reg - B) / A (strength-reduced IV)
)

// Recovery describes how to reconstruct a variable's expected value.
type Recovery struct {
	Kind RecoveryKind
	Reg  mach.Opd // register holding the alias / linear source
	C    int64    // constant value (RecoverConst, integer)
	CF   float64  // constant value (float)
	IsF  bool
	A, B int64 // linear coefficients (RecoverLinear)
}

// Classification is the verdict for one variable at one breakpoint.
type Classification struct {
	Var   *ast.Object
	State State
	Cause Cause
	// Recovered is set when the variable's *expected* value can be
	// reconstructed; the variable is then reported Current with the
	// recovery attached.
	Recovered *Recovery
	// Why is the user-facing warning text, in source terms.
	Why string
	// SrcStmts lists the statement IDs of the source assignments
	// responsible for the endangerment — the eliminated assignments whose
	// values are missing (dead reach) or the assignments executed
	// prematurely (hoist reach). The paper: "the debugger can provide
	// additional information about V to the user, such as the source
	// assignment expression(s) that (may have) assigned the actual value
	// of V, or the source assignment expression(s) that (possibly) should
	// have assigned the expected value."
	SrcStmts []int
	// Fields holds the per-field verdicts (indexed by field position)
	// when Var is a struct aggregate that SROA decomposed into scalar
	// member variables. The aggregate's own State summarizes them as the
	// worst field state; a mix of current and endangered fields is the
	// partially-resident-struct endangerment class.
	Fields []Classification
}

// ---------------------------------------------------------------- entities

// recEntity is one recovery source in the code (possibly with several
// generation sites that establish the same recovery). v is the recovered
// local's Object.ID.
type recEntity struct {
	v    int32
	kind RecoveryKind
	reg  mach.Opd // register to read (alias/linear); None for const
	c    int64
	cf   float64
	isF  bool
	a, b int64
}

// sameRecovery reports whether e and x recover the same variable the same
// way (the merge key of collect).
func (e *recEntity) sameRecovery(x *recEntity) bool {
	return e.v == x.v && e.kind == x.kind && e.reg == x.reg && e.c == x.c &&
		e.cf == x.cf && e.a == x.a && e.b == x.b
}

// srcEntity is one individual endangerment source; v is the endangered
// local's Object.ID.
type srcEntity struct {
	v     int32
	stmt  int
	hoist bool // hoisted assignment (premature) vs dead marker (stale)
}

// Analysis is the solved data-flow information for one function, as seen
// from Fn, the Func it was asked about. The solved facts belong to Fn's
// machine body, not to Fn: they name variables by Object.ID only and hold
// no front-end pointer, so every Func over one body (the function cache
// gives each compile its own Func over a shared body) can share them, and
// objects are resolved through Fn at query time.
type Analysis struct {
	Fn *mach.Func
	*facts
}

// facts is the part of an analysis that a machine body determines, given
// the declaration facts the function key hashes with it (the locals'
// IDs, names, types and scopes, and the statement count).
//
// Every table is indexed by position, not by pointer: blocks by their
// index in the body's Blocks, instructions by their flat position (block
// bi's instruction i sits at start[bi]+i), variables by Object.ID. Each
// table is one allocation per function.
type facts struct {
	// once builds the facts of a body shared through AnalysisSet.
	once sync.Once

	Table *debuginfo.Table

	numVars int
	bits    int
	ents    []recEntity
	// srcEnts tracks individual endangerment sources (dead markers and
	// hoisted assignments) so classifications can name the responsible
	// source statements.
	srcEnts []srcEntity

	// blockPos[b.ID] is b's index in Fn.Blocks (see blockOf); start[bi]
	// is the flat position of block bi's first instruction and
	// start[len(Fn.Blocks)] the function's instruction count.
	blockPos []int32
	start    []int32

	// effs[effOff[p]:effOff[p+1]] is instruction p's cached transfer
	// function, computed once at analysis time so every later consumer
	// (block gen/kill construction, breakpoint prefix walks) replays it
	// without recomputation: generated bits (>= 0) first, then killed
	// bits stored as ^bit.
	effOff []int32
	effs   []int32

	// in holds the solved block in-sets: block bi's may set is in[bi],
	// its must set in[nblocks+bi].
	in []dataflow.BitSet

	// bpSlot precomputes the may/must pair just before every breakpoint
	// location in Table: slot start[bi]+bi+idx stands for instruction idx
	// of block bi (idx clamped to the block length, so a block has
	// len+1 slots) and holds the pair's index, or -1. Pair i is
	// bpSets[2i] (may) and bpSets[2i+1] (must). All variables classified
	// at a location share one read-only pair.
	bpSlot []int32
	bpSets []dataflow.BitSet
	// stmtBP[s] is the pair for statement s (through Table.LocOf's
	// fallback), so the classification hot path is two array loads with
	// no hashing; -1 where the statement has no location.
	stmtBP []int32

	// The recovery entities and endangerment sources of variable id are
	// varEnts[varEntOff[id]:varEntOff[id+1]] and
	// varSrcs[varSrcOff[id]:varSrcOff[id+1]], in index order, so
	// per-variable work does not scan unrelated entities.
	varEntOff, varEnts []int32
	varSrcOff, varSrcs []int32

	// Precomputed user-facing texts and recovery descriptors. Every one
	// of these strings depends only on analysis-time facts (the variable,
	// the recovery entity), so they are rendered once instead of once per
	// query; the classifier's dynamic texts (endangerment warnings with
	// statement lists) remain rendered at query time. The strings are
	// substrings of one buffer, and the three text slices views of texts.
	texts     []string
	textCap   int        // capacity of the buffer the texts are cut from
	uninitWhy []string   // per var ID
	nonresWhy []string   // per var ID
	recWhy    []string   // per entity
	recovered []Recovery // per entity; Classification.Recovered aliases these
}

// bit layout: init | hoist | dead | res | recovery entities | src entities,
// the variable bits by Object.ID.
func (a *facts) initBit(id int) int  { return id }
func (a *facts) hoistBit(id int) int { return a.numVars + id }
func (a *facts) deadBit(id int) int  { return 2*a.numVars + id }
func (a *facts) resBit(id int) int   { return 3*a.numVars + id }
func (a *facts) entBit(e int32) int  { return 4*a.numVars + int(e) }
func (a *facts) srcBit(e int32) int  { return 4*a.numVars + len(a.ents) + int(e) }

// entsOf and srcsOf list the recovery entities and endangerment sources
// filed under variable id.
func (a *facts) entsOf(id int) []int32 {
	return a.varEnts[a.varEntOff[id]:a.varEntOff[id+1]]
}

func (a *facts) srcsOf(id int) []int32 {
	return a.varSrcs[a.varSrcOff[id]:a.varSrcOff[id+1]]
}

// Analyze solves the classifier's data-flow problems for f. The analysis
// it returns shares nothing; AnalysisSet.Of shares one per body.
func Analyze(f *mach.Func) *Analysis {
	f.Load() // a stub read back from the spill tier decodes here
	a := &Analysis{Fn: f, facts: &facts{}}
	a.build()
	return a
}

// build fills a's facts from a.Fn's body. Nothing it stores points into
// a.Fn's front end.
func (a *Analysis) build() {
	f := a.Fn
	a.Table = debuginfo.Build(f)
	a.numVars = len(f.Decl.Locals)
	b := newBuilder(a)
	b.collect()
	a.bits = 4*a.numVars + len(a.ents) + len(a.srcEnts)
	b.index()
	b.buildEffects()
	a.solve()
	a.buildBreakpointTables()
	a.buildStaticTexts()
}

// builder holds the scratch tables Analyze needs only while it runs.
type builder struct {
	a *Analysis
	// entAt[p] and srcAt[p] are the recovery entity and the endangerment
	// source instruction p generates, or -1.
	entAt, srcAt []int32
	// The variables allocated to register key k (see regKey) are
	// regVars[regVarOff[k]:regVarOff[k+1]]; the recovery entities whose
	// source is that register, regEnts[regEntOff[k]:regEntOff[k+1]].
	regVarOff, regEntOff []int32
	regVars, regEnts     []int32
	kills                []int32 // the current instruction's killed bits
}

func newBuilder(a *Analysis) *builder {
	f := a.Fn
	maxID := -1
	for _, blk := range f.Blocks {
		maxID = max(maxID, blk.ID)
	}
	a.blockPos = make([]int32, maxID+1)
	a.start = make([]int32, len(f.Blocks)+1)
	for i, blk := range f.Blocks {
		if blk.ID >= 0 {
			a.blockPos[blk.ID] = int32(i)
		}
		a.start[i+1] = a.start[i] + int32(len(blk.Instrs))
	}
	n := int(a.start[len(f.Blocks)])
	at := make([]int32, 2*n)
	for i := range at {
		at[i] = -1
	}
	return &builder{a: a, entAt: at[:n:n], srcAt: at[n:]}
}

// blockOf returns b's index in Fn.Blocks and whether b is one of them; a
// block outside the function maps to index 0.
func (a *Analysis) blockOf(b *mach.Block) (int, bool) {
	if id := b.ID; id >= 0 && id < len(a.blockPos) && a.Fn.Blocks[a.blockPos[id]] == b {
		return int(a.blockPos[id]), true
	}
	return 0, false
}

// regKey numbers a register (class, number) for the builder's register
// tables; -1 for an operand outside them.
func regKey(class mach.RegClass, r int) int {
	if r < 0 || class < 0 || class > mach.FloatClass {
		return -1
	}
	return 2*r + int(class)
}

// bucket groups items 0..n-1 by key(i) in [0, k) (items with a key
// outside that range are left out) and returns per-key offsets into the
// item list, items in increasing order within each key.
func bucket(k, n int, key func(i int) int) (off, items []int32) {
	off = make([]int32, k+1)
	for i := 0; i < n; i++ {
		if x := key(i); x >= 0 && x < k {
			off[x+1]++
		}
	}
	for x := 0; x < k; x++ {
		off[x+1] += off[x]
	}
	items = make([]int32, off[k])
	// Fill every key's range from its end, walking the items backwards;
	// off[x+1] ends at key x's start, so shift it down one place.
	for i := n - 1; i >= 0; i-- {
		if x := key(i); x >= 0 && x < k {
			off[x+1]--
			items[off[x+1]] = int32(i)
		}
	}
	copy(off[:k], off[1:])
	off[k] = int32(len(items))
	return off, items
}

// collect finds every recovery source and every endangerment source in
// the final code.
//
// Recovery sources that recover the same variable the same way (same
// register, same linear formula or constant) are merged into one
// data-flow entity with several generation sites — e.g. the preheader
// initialization and the in-loop bump of a strength-reduced temporary
// both establish the same recovery of the eliminated induction variable.
//
// Every dead marker and hoisted source assignment is an individually
// tracked endangerment source.
func (b *builder) collect() {
	a := b.a
	// last[id] is the newest entity of variable id and prev[e] the one
	// before entity e, so a merge scans only the variable's own entities.
	last := make([]int32, a.numVars)
	for i := range last {
		last[i] = -1
	}
	var prev []int32
	var e recEntity
	p := 0
	for _, blk := range a.Fn.Blocks {
		for _, in := range blk.Instrs {
			if a.recoveryOf(in, &e) {
				ei := last[e.v]
				for ei >= 0 && !a.ents[ei].sameRecovery(&e) {
					ei = prev[ei]
				}
				if ei < 0 {
					ei = int32(len(a.ents))
					a.ents = append(a.ents, e)
					prev = append(prev, last[e.v])
					last[e.v] = ei
				}
				b.entAt[p] = ei
			}
			src := srcEntity{v: -1, stmt: int(in.Stmt)}
			switch {
			case in.Op == mach.MARKDEAD && in.Stmt >= 0:
				src.v = a.local(in.MarkObj())
			case in.DefObj != 0 && in.Hoisted && in.Stmt >= 0:
				src.v, src.hoist = a.local(in.DefObj), true
			}
			if src.v >= 0 {
				b.srcAt[p] = int32(len(a.srcEnts))
				a.srcEnts = append(a.srcEnts, src)
			}
			p++
		}
	}
}

// local is the Object.ID r names when r is one of the function's locals
// (or parameters), and -1 otherwise.
func (a *facts) local(r mach.ObjRef) int32 {
	if r > 0 && !r.IsGlobal() && r.ID() < a.numVars {
		return int32(r.ID())
	}
	return -1
}

// recoveryOf reports whether in establishes a recovery source of one of
// the function's locals, and if so sets *e to it.
func (a *facts) recoveryOf(in *mach.Instr, e *recEntity) bool {
	alias, r := in.MarkAlias(), in.Recover()
	switch {
	case in.Op == mach.MARKDEAD && alias.Kind != mach.None:
		v := a.local(in.MarkObj())
		if v < 0 {
			return false
		}
		*e = recEntity{v: v}
		switch alias.Kind {
		case mach.Imm:
			e.kind = RecoverConst
			e.c = alias.Imm
		case mach.FImm:
			e.kind = RecoverConst
			e.cf = alias.Float()
			e.isF = true
		case mach.Reg:
			e.kind = RecoverAlias
			e.reg = alias
		}
		return true

	case r.Var != 0 && in.Dst.IsReg():
		*e = recEntity{v: a.local(r.Var), kind: RecoverLinear, reg: in.Dst, a: r.A, b: r.B}
		return e.v >= 0

	case in.ReplacedVar != 0 && in.Dst.IsReg():
		*e = recEntity{v: a.local(in.ReplacedVar), kind: RecoverAlias, reg: in.Dst}
		return e.v >= 0
	}
	return false
}

// index files the entities and sources by variable, and the entities
// and the allocated variables by register.
func (b *builder) index() {
	a := b.a
	a.varEntOff, a.varEnts = bucket(a.numVars, len(a.ents), func(i int) int { return int(a.ents[i].v) })
	a.varSrcOff, a.varSrcs = bucket(a.numVars, len(a.srcEnts), func(i int) int { return int(a.srcEnts[i].v) })

	type regVar struct {
		v   int32
		key int
	}
	var vars []regVar
	for id, loc := range a.Fn.VarLoc {
		if loc.Kind == mach.LocReg {
			vars = append(vars, regVar{int32(id), regKey(loc.Class, loc.R)})
		}
	}
	entKey := func(i int) int {
		if r := a.ents[i].reg; r.IsReg() {
			return regKey(r.Class, int(r.R))
		}
		return -1
	}
	k := 0
	for _, rv := range vars {
		k = max(k, rv.key+1)
	}
	for i := range a.ents {
		k = max(k, entKey(i)+1)
	}
	var order []int32
	b.regVarOff, order = bucket(k, len(vars), func(i int) int { return vars[i].key })
	b.regVars = make([]int32, len(order))
	for j, i := range order {
		b.regVars[j] = vars[i].v
	}
	b.regEntOff, b.regEnts = bucket(k, len(a.ents), entKey)
}

// onReg returns the variables allocated to register d and the entities
// whose source is d's register number and class.
func (b *builder) onReg(d mach.Opd) (vars, ents []int32) {
	k := regKey(d.Class, int(d.R))
	if k < 0 || k+1 >= len(b.regVarOff) {
		return nil, nil
	}
	return b.regVars[b.regVarOff[k]:b.regVarOff[k+1]], b.regEnts[b.regEntOff[k]:b.regEntOff[k+1]]
}

// buildEffects runs the effects function once per instruction and
// records the resulting bits in the effect arena.
func (b *builder) buildEffects() {
	a := b.a
	n := len(b.entAt)
	a.effOff = make([]int32, n+1)
	a.effs = make([]int32, 0, 6*n) // about five bits per instruction on the randprog corpus
	p := 0
	for _, blk := range a.Fn.Blocks {
		for _, in := range blk.Instrs {
			b.effects(p, in)
			for _, bit := range b.kills {
				a.effs = append(a.effs, ^bit)
			}
			b.kills = b.kills[:0]
			p++
			a.effOff[p] = int32(len(a.effs))
		}
	}
}

// gen and kill record one bit of the current instruction's effect.
func (b *builder) gen(bit int)  { b.a.effs = append(b.a.effs, int32(bit)) }
func (b *builder) kill(bit int) { b.kills = append(b.kills, int32(bit)) }

// effects computes the bits generated and killed by instruction in, at
// flat position p.
func (b *builder) effects(p int, in *mach.Instr) {
	a := b.a
	switch in.Op {
	case mach.MARKDEAD:
		v := int(a.local(in.MarkObj()))
		if v < 0 {
			return
		}
		b.gen(a.initBit(v))
		b.gen(a.deadBit(v))
		// A newly eliminated assignment changes V's *expected* value:
		// recovery sources established for the previous value are stale,
		// and so are older dead-source attributions.
		for _, ei := range a.entsOf(v) {
			if b.entAt[p] != ei {
				b.kill(a.entBit(ei))
			}
		}
		for _, si := range a.srcsOf(v) {
			if !a.srcEnts[si].hoist && b.srcAt[p] != si {
				b.kill(a.srcBit(si))
			}
		}
		if e := b.entAt[p]; e >= 0 {
			b.gen(a.entBit(e))
		}
		if s := b.srcAt[p]; s >= 0 {
			b.gen(a.srcBit(s))
		}
		return
	case mach.MARKAVAIL:
		v := int(a.local(in.MarkObj()))
		if v < 0 {
			return
		}
		b.gen(a.initBit(v))
		b.kill(a.hoistBit(v))
		b.kill(a.deadBit(v))
		// V's location holds the (already computed) value: it is
		// authoritative again.
		for _, ei := range a.entsOf(v) {
			b.kill(a.entBit(ei))
		}
		for _, si := range a.srcsOf(v) {
			b.kill(a.srcBit(si))
		}
		return
	}

	// Clobbers: writing a physical register destroys the residence of the
	// other variables allocated to it and invalidates recovery entities
	// whose alias lives there.
	def := a.local(in.DefObj)
	if d := in.Def(); d.IsReg() {
		vars, ents := b.onReg(d)
		for _, w := range vars {
			if w != def {
				b.kill(a.resBit(int(w)))
			}
		}
		for _, ei := range ents {
			if a.ents[ei].reg.Same(d) && b.entAt[p] != ei {
				b.kill(a.entBit(ei))
			}
		}
	}

	// Real definition of a source variable.
	if v := int(def); v >= 0 {
		b.gen(a.initBit(v))
		b.gen(a.resBit(v))
		if in.Hoisted {
			// Hoisted assignment: V updated prematurely (Figure 2's E3).
			b.gen(a.hoistBit(v))
			b.kill(a.deadBit(v))
			for _, si := range a.srcsOf(v) {
				if b.srcAt[p] != si {
					b.kill(a.srcBit(si))
				}
			}
			if s := b.srcAt[p]; s >= 0 {
				b.gen(a.srcBit(s))
			}
		} else {
			b.kill(a.hoistBit(v))
			b.kill(a.deadBit(v))
			for _, si := range a.srcsOf(v) {
				b.kill(a.srcBit(si))
			}
		}
		// A fresh real value supersedes stale recovery info for V.
		for _, ei := range a.entsOf(v) {
			if b.entAt[p] != ei {
				b.kill(a.entBit(ei))
			}
		}
	}

	// Recovery generation (alias / linear); also kills the dead reach of
	// the recovered variable (§2.5: "In all cases, the dead reach of V is
	// killed by E").
	if e := b.entAt[p]; e >= 0 {
		b.gen(a.entBit(e))
		b.kill(a.deadBit(int(a.ents[e].v)))
	}
}

// applyEffect folds instruction p's cached effects into a running
// may/must pair: generated bits appear in both, killed bits leave both.
func (a *Analysis) applyEffect(p int, may, must *dataflow.BitSet) {
	for _, x := range a.effs[a.effOff[p]:a.effOff[p+1]] {
		if x >= 0 {
			may.Set(int(x))
			must.Set(int(x))
		} else {
			may.Clear(int(^x))
			must.Clear(int(^x))
		}
	}
}

// solve builds per-block gen/kill sets and runs the may and must problems.
func (a *Analysis) solve() {
	f := a.Fn
	n := len(f.Blocks)
	// One edge array backs every block's successor and predecessor list;
	// predecessors are listed in block order.
	nEdges := 0
	for _, blk := range f.Blocks {
		nEdges += len(blk.Succs)
	}
	edges := make([]int, 2*nEdges)
	lists := make([][]int, 2*n)
	graph := dataflow.Graph{N: n, Succs: lists[:n:n], Preds: lists[n:]}
	predOff := make([]int, n+1)
	e := 0
	for i, blk := range f.Blocks {
		for _, s := range blk.Succs {
			si, _ := a.blockOf(s)
			edges[e] = si
			e++
			predOff[si+1]++
		}
		graph.Succs[i] = edges[e-len(blk.Succs) : e : e]
	}
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	preds := edges[nEdges:]
	for i := range f.Blocks {
		for _, si := range graph.Succs[i] {
			preds[predOff[si]] = i
			predOff[si]++
		}
	}
	for si := n - 1; si >= 0; si-- {
		lo := 0
		if si > 0 {
			lo = predOff[si-1]
		}
		if lo < predOff[si] {
			graph.Preds[si] = preds[lo:predOff[si]:predOff[si]]
		}
	}

	sets := dataflow.NewBitSets(2*n, a.bits)
	ptrs := make([]*dataflow.BitSet, 2*n)
	for i := range ptrs {
		ptrs[i] = &sets[i]
	}
	gen, kill := ptrs[:n:n], ptrs[n:]
	for i := range f.Blocks {
		g, k := gen[i], kill[i]
		for p := a.start[i]; p < a.start[i+1]; p++ {
			for _, x := range a.effs[a.effOff[p]:a.effOff[p+1]] {
				if x >= 0 {
					g.Set(int(x))
					k.Clear(int(x))
				} else {
					k.Set(int(^x))
					g.Clear(int(^x))
				}
			}
		}
	}

	may := (&dataflow.Problem{Graph: graph, Dir: dataflow.Forward, Meet: dataflow.Union,
		Bits: a.bits, Gen: gen, Kill: kill}).Solve()
	must := (&dataflow.Problem{Graph: graph, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: a.bits, Gen: gen, Kill: kill}).Solve()
	a.in = dataflow.NewBitSets(2*n, a.bits)
	for i := 0; i < n; i++ {
		a.in[i].CopyFrom(may.In[i])
		a.in[n+i].CopyFrom(must.In[i])
	}
}

// blockIn returns block bi's solved may and must in-sets.
func (a *Analysis) blockIn(bi int) (may, must *dataflow.BitSet) {
	return &a.in[bi], &a.in[len(a.Fn.Blocks)+bi]
}

// slotOf returns the breakpoint slot of loc (see bpSlot); ok is false
// when loc's block is not one of the function's.
func (a *Analysis) slotOf(loc debuginfo.Loc) (slot int, ok bool) {
	bi, ok := a.blockOf(loc.Block)
	return int(a.start[bi]) + bi + clampIdx(loc), ok
}

// buildBreakpointTables precomputes the may/must sets just before every
// distinct breakpoint location the debug table can answer with, so
// classification queries are an array load instead of a block-prefix
// walk. Indexes are clamped to the block length up front: a location one
// past the last instruction (a breakpoint on a block's fall-through edge)
// sees the whole block's effects, and anything beyond that is treated the
// same rather than read out of bounds.
func (a *Analysis) buildBreakpointTables() {
	f, t := a.Fn, a.Table
	nb := len(f.Blocks)
	a.bpSlot = make([]int32, int(a.start[nb])+nb)
	for i := range a.bpSlot {
		a.bpSlot[i] = -1
	}
	// Every instance of a statement is an armable breakpoint location
	// (unroll clones included), so each one gets a pair; mark the
	// slots first, then number them in block and instruction order.
	count := 0
	for s := 0; s < t.NumStmts; s++ {
		for _, loc := range t.InstancesOf(s) {
			if k, ok := a.slotOf(loc); ok && a.bpSlot[k] < 0 {
				a.bpSlot[k] = 0
				count++
			}
		}
	}
	a.bpSets = dataflow.NewBitSets(2*count+2, a.bits)
	may, must := &a.bpSets[2*count], &a.bpSets[2*count+1] // running pair
	next := int32(0)
	for bi := range f.Blocks {
		row := a.bpSlot[int(a.start[bi])+bi : int(a.start[bi+1])+bi+1]
		last := -1
		for idx, x := range row {
			if x >= 0 {
				last = idx
			}
		}
		if last < 0 {
			continue
		}
		in0, in1 := a.blockIn(bi)
		may.CopyFrom(in0)
		must.CopyFrom(in1)
		for idx := 0; ; idx++ {
			if row[idx] >= 0 {
				row[idx] = next
				a.bpSets[2*next].CopyFrom(may)
				a.bpSets[2*next+1].CopyFrom(must)
				next++
			}
			if idx == last {
				break
			}
			a.applyEffect(int(a.start[bi])+idx, may, must)
		}
	}
	a.bpSets = a.bpSets[:2*count] // the running pair stays in the slab's capacity
	// Per-statement view of the same pairs, through LocOf's fallback to
	// the next statement with its own location.
	a.stmtBP = make([]int32, t.NumStmts)
	cur := int32(-1)
	for s := t.NumStmts - 1; s >= 0; s-- {
		if t.HasOwnLoc(s) {
			loc, _ := t.LocOf(s)
			cur = -1
			if k, ok := a.slotOf(loc); ok {
				cur = a.bpSlot[k]
			}
		}
		a.stmtBP[s] = cur
	}
}

// clampIdx bounds a location's instruction index to the block length.
func clampIdx(loc debuginfo.Loc) int {
	if n := len(loc.Block.Instrs); loc.Idx > n {
		return n
	}
	return loc.Idx
}

// setsAt returns the may/must sets just before the instruction at loc.
// Breakpoint locations from the debug table hit the precomputed per-
// breakpoint pair (shared across every variable classified there); any
// other location falls back to replaying the cached per-instruction
// effects over the block prefix. The returned sets are shared and must
// be treated as read-only by callers.
func (a *Analysis) setsAt(loc debuginfo.Loc) (may, must *dataflow.BitSet) {
	k, ok := a.slotOf(loc)
	if ok {
		if i := a.bpSlot[k]; i >= 0 {
			return &a.bpSets[2*i], &a.bpSets[2*i+1]
		}
	}
	bi, _ := a.blockOf(loc.Block)
	in0, in1 := a.blockIn(bi)
	may, must = in0.Copy(), in1.Copy()
	for p := a.start[bi]; p < a.start[bi+1] && p < a.start[bi]+int32(clampIdx(loc)); p++ {
		a.applyEffect(int(p), may, must)
	}
	return may, must
}

// buildStaticTexts renders every query-independent piece of a
// classification once: per-variable warning texts, per-entity Recovery
// descriptors and their recovery texts. All texts are written into one
// buffer and sliced out of it, and all their headers share one array.
func (a *Analysis) buildStaticTexts() {
	locals := a.Fn.Decl.Locals
	nv := a.numVars
	size := 0
	for _, v := range locals {
		size += 2 * (len(v.Name) + 60)
	}
	for i := range a.ents {
		size += len(locals[a.ents[i].v].Name) + 100
	}
	var sb strings.Builder
	sb.Grow(size)
	texts := make([]string, 2*nv+len(a.ents))
	// span[2i:2i+2] is text i's [start, end) in the buffer.
	span := make([]int32, 2*len(texts))
	mark := func(i, start int) {
		span[2*i], span[2*i+1] = int32(start), int32(sb.Len())
	}
	for _, v := range locals {
		at := sb.Len()
		sb.WriteString(v.Name)
		sb.WriteString(" has not been assigned on any path to this breakpoint")
		mark(v.ID, at)
		at = sb.Len()
		sb.WriteString("the register assigned to ")
		sb.WriteString(v.Name)
		sb.WriteString(" may hold another value here")
		mark(nv+v.ID, at)
	}
	a.recovered = make([]Recovery, len(a.ents))
	for ei := range a.ents {
		e := &a.ents[ei]
		a.recovered[ei] = Recovery{Kind: e.kind, Reg: e.reg, C: e.c, CF: e.cf, IsF: e.isF, A: e.a, B: e.b}
		at := sb.Len()
		writeRecoveryText(&sb, locals[e.v].Name, &a.recovered[ei])
		mark(2*nv+ei, at)
	}
	all := sb.String()
	a.textCap = sb.Cap()
	for i := range texts {
		texts[i] = all[span[2*i]:span[2*i+1]]
	}
	a.texts = texts
	a.uninitWhy, a.nonresWhy = texts[:nv:nv], texts[nv:2*nv:2*nv]
	a.recWhy = texts[2*nv:]
}

// writeRecoveryText writes the warning for the variable named name,
// displayed through recovery r.
func writeRecoveryText(sb *strings.Builder, name string, r *Recovery) {
	var num [32]byte
	switch r.Kind {
	case RecoverConst:
		sb.WriteString("the assignment to ")
		sb.WriteString(name)
		sb.WriteString(" was eliminated, but its value is the constant ")
		if r.IsF {
			sb.Write(strconv.AppendFloat(num[:0], r.CF, 'g', -1, 64))
		} else {
			sb.Write(strconv.AppendInt(num[:0], r.C, 10))
		}
	case RecoverAlias:
		sb.WriteString(name)
		sb.WriteString(" was eliminated, but its value is aliased in ")
		writeOpd(sb, r.Reg)
	case RecoverLinear:
		sb.WriteString(name)
		sb.WriteString(" was eliminated by induction-variable elimination; recover it as (")
		writeOpd(sb, r.Reg)
		sb.WriteString(" - ")
		sb.Write(strconv.AppendInt(num[:0], r.B, 10))
		sb.WriteString(") / ")
		sb.Write(strconv.AppendInt(num[:0], r.A, 10))
	}
}

// writeOpd writes o exactly as mach.Opd.String renders it, without fmt
// for the register operands recoveries read.
func writeOpd(sb *strings.Builder, o mach.Opd) {
	if !o.IsReg() {
		sb.WriteString(o.String())
		return
	}
	if o.Class == mach.FloatClass {
		sb.WriteByte('f')
	} else {
		sb.WriteByte('r')
	}
	var num [20]byte
	sb.Write(strconv.AppendInt(num[:0], int64(o.R), 10))
}

// ---------------------------------------------------------------- classify

// ClassifyAt classifies variable v at the breakpoint for statement stmt.
// ok is false when the statement has no code location at all.
func (a *Analysis) ClassifyAt(stmt int, v *ast.Object) (Classification, bool) {
	loc, ok := a.Table.LocOf(stmt)
	if !ok {
		return Classification{}, false
	}
	may, must := a.setsForStmt(stmt, loc)
	return a.classify(loc, v, may, must), true
}

// ClassifyAllAt classifies every in-scope local at the statement. All
// variables share one precomputed may/must set pair for the statement's
// breakpoint location.
func (a *Analysis) ClassifyAllAt(stmt int) ([]Classification, bool) {
	loc, ok := a.Table.LocOf(stmt)
	if !ok {
		return nil, false
	}
	may, must := a.setsForStmt(stmt, loc)
	vars := a.Table.VarsInScope(stmt)
	out := make([]Classification, 0, len(vars))
	for _, id := range vars {
		out = append(out, a.classify(loc, a.Fn.Decl.Locals[id], may, must))
	}
	return out, true
}

// setsForStmt returns the precomputed breakpoint sets for a statement,
// falling back to setsAt for statements outside the table's range.
func (a *Analysis) setsForStmt(stmt int, loc debuginfo.Loc) (may, must *dataflow.BitSet) {
	if stmt >= 0 && stmt < len(a.stmtBP) {
		if i := a.stmtBP[stmt]; i >= 0 {
			return &a.bpSets[2*i], &a.bpSets[2*i+1]
		}
	}
	return a.setsAt(loc)
}

// ClassifyLoc classifies v at an explicit stop location. Breakpoints are
// armed at every instance of a statement (unrolled clones included) and
// steps can stop at any statement boundary; the dataflow must be read at
// the instruction actually reached, not at the statement's canonical
// table location.
func (a *Analysis) ClassifyLoc(loc debuginfo.Loc, v *ast.Object) Classification {
	return a.classifyAtLoc(loc, v)
}

// classifyAtLoc classifies v at an explicit code location.
func (a *Analysis) classifyAtLoc(loc debuginfo.Loc, v *ast.Object) Classification {
	may, must := a.setsAt(loc)
	return a.classify(loc, v, may, must)
}

// classify is the decision procedure of Figure 1 over precomputed
// may/must sets; it never mutates them.
func (a *Analysis) classify(loc debuginfo.Loc, v *ast.Object, may, must *dataflow.BitSet) Classification {
	c := Classification{Var: v, State: Current}

	// Addressed variables and arrays live in memory; the scalar optimizer
	// neither moves nor deletes their stores, so they are always resident
	// and current once in scope — except that the *scheduler* may move a
	// store across the breakpoint within a block, making the memory image
	// run ahead of or behind the source point.
	if v.Addressed {
		a.applyMemSched(loc, &c)
		return c
	}

	// Struct member variables ("s.x"): while the base aggregate still owns
	// its frame slot, the field lives inside that memory and is current
	// like any other memory object. Once SROA splits the base, the member
	// is an ordinary promoted scalar and takes the full Figure 1 path
	// below.
	if v.Base != nil {
		fieldsClassified.Add(1)
		if !a.aggSplit(v.Base) {
			a.applyMemSched(loc, &c)
			return c
		}
	} else if ast.IsStruct(v.Type) {
		return a.classifyAggregate(loc, v, may, must)
	}

	// Step 1 (Figure 1): is V initialized? Source-level reaching: real
	// defs and markers of eliminated assignments both count.
	if !may.Has(a.initBit(v.ID)) {
		c.State = Uninitialized
		c.Why = a.uninitWhy[v.ID]
		return c
	}

	// Recovery availability (must-reach of some recovery source for V).
	// Recovery is the paper's §2.5 *refinement*: the variable remains
	// classified by what its location holds (the baseline model of Figure
	// 1), and the recovery is attached so the debugger can display the
	// reconstructed expected value alongside the warning.
	var rec *Recovery
	var recWhy string
	for _, ei := range a.entsOf(v.ID) {
		if !must.Has(a.entBit(ei)) {
			continue
		}
		rec = &a.recovered[ei]
		recWhy = a.recWhy[ei]
		break
	}
	if rec != nil && a.recStaleBySched(loc, v) {
		rec = nil
		recWhy = ""
	}

	// Step 2: is V resident?
	if !a.residentAt(v, may, must) {
		c.State = Nonresident
		c.Why = a.nonresWhy[v.ID]
		if rec != nil {
			// Recovery re-establishes a residence (§2.5): the value can
			// be shown from the recovery source.
			c.Recovered = rec
			c.Why = recWhy
		}
		return c
	}

	// Step 3: endangered?
	switch {
	case must.Has(a.hoistBit(v.ID)):
		c.State = Noncurrent
		c.Cause = ByHoisting
		c.SrcStmts = a.srcStmtsFor(v, may, true)
		c.Why = fmt.Sprintf("%s was assigned prematurely by a hoisted assignment%s; the source assignment it replaces has not executed yet",
			v.Name, stmtList(c.SrcStmts))
	case must.Has(a.deadBit(v.ID)):
		c.State = Noncurrent
		c.Cause = ByDeadCodeElim
		c.SrcStmts = a.srcStmtsFor(v, may, false)
		c.Why = fmt.Sprintf("the assignment to %s%s was eliminated as dead; the value shown is stale",
			v.Name, stmtList(c.SrcStmts))
		if rec != nil {
			c.Recovered = rec
			c.Why = recWhy
		}
	case may.Has(a.hoistBit(v.ID)):
		c.State = Suspect
		c.Cause = ByHoisting
		c.SrcStmts = a.srcStmtsFor(v, may, true)
		c.Why = fmt.Sprintf("%s may have been assigned prematurely by a hoisted assignment%s on some path to this breakpoint",
			v.Name, stmtList(c.SrcStmts))
	case may.Has(a.deadBit(v.ID)):
		c.State = Suspect
		c.Cause = ByDeadCodeElim
		c.SrcStmts = a.srcStmtsFor(v, may, false)
		c.Why = fmt.Sprintf("the assignment to %s%s was eliminated as dead on some path to this breakpoint; the value may be stale",
			v.Name, stmtList(c.SrcStmts))
		if rec != nil {
			c.Recovered = rec
			c.Why = recWhy
		}
	default:
		if cause, prem := a.schedEndangered(loc, v); cause {
			c.State = Noncurrent
			c.Cause = ByScheduling
			if prem {
				c.Why = fmt.Sprintf("the assignment to %s was scheduled before this breakpoint and has already executed", v.Name)
			} else {
				c.Why = fmt.Sprintf("the assignment to %s was scheduled after this breakpoint and has not executed yet", v.Name)
			}
		} else if rec != nil {
			// The dead reach was killed by a recovery expression (§2.5):
			// V is current *through the recovery source* — its own
			// location is stale, so the debugger must display the
			// recovered value.
			c.Recovered = rec
			c.Why = recWhy
		}
	}
	return c
}

// aggSplit reports whether aggregate base was decomposed by SROA: a
// split aggregate no longer owns a frame slot in the final code.
func (a *Analysis) aggSplit(base *ast.Object) bool {
	_, inFrame := a.Fn.FrameOffOf(base)
	return !inFrame
}

// classifyAggregate produces the verdict for a struct-typed variable. An
// aggregate that still owns its frame slot is memory-resident and current
// as a unit. A split aggregate no longer exists in the final code: each
// field is an independent scalar with its own verdict, and the
// aggregate's own state summarizes them — Current only when every field
// is current, otherwise the worst field state with a warning naming the
// offending fields (the struct is *partially resident*: some fields can
// be displayed directly, others are endangered or live nowhere).
func (a *Analysis) classifyAggregate(loc debuginfo.Loc, v *ast.Object, may, must *dataflow.BitSet) Classification {
	c := Classification{Var: v, State: Current}
	if len(v.Members) == 0 || !a.aggSplit(v) {
		a.applyMemSched(loc, &c)
		return c
	}
	c.Fields = make([]Classification, len(v.Members))
	var bad []string
	for i, m := range v.Members {
		fc := a.classify(loc, m, may, must)
		c.Fields[i] = fc
		if stateSeverity(fc.State) > stateSeverity(c.State) {
			c.State = fc.State
			c.Cause = fc.Cause
		}
		if fc.State != Current {
			bad = append(bad, fmt.Sprintf("%s is %s", m.Name, fc.State))
		}
	}
	if c.State != Current {
		c.Why = fmt.Sprintf("%s was decomposed into per-field scalars and is only partially resident: %s",
			v.Name, strings.Join(bad, "; "))
	}
	return c
}

// stateSeverity orders states for aggregate summarization (higher is
// worse): a field nobody can display outranks one that is merely stale.
func stateSeverity(s State) int {
	switch s {
	case Suspect:
		return 1
	case Noncurrent:
		return 2
	case Nonresident:
		return 3
	case Uninitialized:
		return 4
	}
	return 0
}

// residentAt implements the residence test. Without register allocation
// every variable has a private location, so initialized implies resident
// (Figure 5(a): "nonresident variables cannot occur"). With allocation,
// register-resident variables require their defining value to reach on all
// paths without the register being reused (the conservative live-range
// model of [3]); spilled variables own their stack slot.
func (a *Analysis) residentAt(v *ast.Object, may, must *dataflow.BitSet) bool {
	f := a.Fn
	if !f.Allocated {
		return may.Has(a.initBit(v.ID))
	}
	loc, ok := f.LocOf(v)
	if !ok || loc.Kind == mach.LocNone {
		return false
	}
	if loc.Kind == mach.LocSpill {
		return may.Has(a.initBit(v.ID))
	}
	return must.Has(a.resBit(v.ID))
}

// schedEndangered detects within-block reorderings of V's assignments
// across the breakpoint (the [2]-style check): returns (endangered,
// premature). Positions are compared by PreSched — the instruction's
// block index immediately before scheduling ran — which is the source-
// dynamic order of the block's code. OrigIdx cannot serve here: passes
// that rebuild an assignment (e.g. propagation re-materializing a copy)
// stamp a fresh emission index, making a moved definition look like
// later code; and in a rotated loop block the body's emission indices
// legitimately precede the bottom test's, which is not a reordering.
func (a *Analysis) schedEndangered(loc debuginfo.Loc, v *ast.Object) (bool, bool) {
	if !a.Fn.Scheduled {
		return false, false
	}
	b := loc.Block
	if loc.Idx >= len(b.Instrs) {
		return false, false
	}
	bpPre := b.Instrs[loc.Idx].PreSched
	ref := mach.RefOf(v)
	for i, in := range b.Instrs {
		if in.DefObj != ref {
			continue
		}
		if i < loc.Idx && in.PreSched > bpPre {
			return true, true // executed early
		}
		if i >= loc.Idx && in.PreSched < bpPre {
			return true, false // should have executed, hasn't
		}
	}
	return false, false
}

// applyMemSched downgrades a memory-resident variable (addressed local,
// unsplit aggregate, or a field of one) to Noncurrent when a source
// store was scheduled across the breakpoint inside its block: the
// memory image then runs behind the source point (a store that should
// already have executed sits below the breakpoint) or ahead of it (a
// later statement's store was moved above it). Stores carry no record
// of which object they write — the address is computed — so the check
// conservatively endangers every memory-resident variable at the stop.
// Calls, prints, and markers are scheduling barriers and never move;
// plain stores are the only memory writes the scheduler reorders.
// Positions are compared by PreSched (see schedEndangered for why
// neither OrigIdx nor statement numbers can serve).
func (a *Analysis) applyMemSched(loc debuginfo.Loc, c *Classification) {
	if !a.Fn.Scheduled {
		return
	}
	b := loc.Block
	if loc.Idx >= len(b.Instrs) {
		return
	}
	bpPre := b.Instrs[loc.Idx].PreSched
	for i, in := range b.Instrs {
		if in.Op != mach.SW && in.Op != mach.FSW {
			continue
		}
		if i < loc.Idx && in.PreSched > bpPre {
			c.State = Noncurrent
			c.Cause = ByScheduling
			c.Why = fmt.Sprintf("a store into memory was scheduled before this breakpoint and has already executed; %s may show a later statement's value", c.Var.Name)
			return
		}
		if i >= loc.Idx && in.PreSched < bpPre {
			c.State = Noncurrent
			c.Cause = ByScheduling
			c.Why = fmt.Sprintf("a store into memory was scheduled after this breakpoint and has not executed yet; %s may show a stale value", c.Var.Name)
			return
		}
	}
}

// recStaleBySched reports whether a must-reaching recovery for v is
// invalidated by instruction scheduling. Entity kills happen at an
// instruction's *final* position: when a real assignment to v is
// scheduled below the breakpoint even though it precedes the breakpoint
// in the original order, the data-flow kill lands below the breakpoint
// and a recovery entity for v's *earlier* eliminated assignment still
// must-reaches it. At source level that earlier assignment is no longer
// the latest binding of v, so recovering through it would fabricate a
// value; the recovery must be dropped. Markers are scheduling barriers
// and never move, and register-clobber kills track the register's
// runtime content (for which final code order is exactly right), so
// real definitions are the only kill sources that need this check.
//
// Positions are compared by PreSched (see schedEndangered for why
// neither OrigIdx nor statement numbers can serve): a definition of v
// sitting below the breakpoint whose pre-scheduling position was above
// it was delayed by the scheduler, so at source level it has already
// rebound v and the entity's recovery would fabricate a value.
func (a *Analysis) recStaleBySched(loc debuginfo.Loc, v *ast.Object) bool {
	if !a.Fn.Scheduled {
		return false
	}
	b := loc.Block
	if loc.Idx >= len(b.Instrs) {
		return false
	}
	bpPre := b.Instrs[loc.Idx].PreSched
	ref := mach.RefOf(v)
	for i := loc.Idx; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		if in.DefObj == ref && in.PreSched < bpPre {
			return true
		}
	}
	return false
}

// srcStmtsFor collects the statement IDs of the endangerment sources for v
// that may reach the current point (matching hoisted vs dead kind).
func (a *Analysis) srcStmtsFor(v *ast.Object, may *dataflow.BitSet, hoist bool) []int {
	var out []int
	for _, si := range a.srcsOf(v.ID) {
		e := &a.srcEnts[si]
		if e.hoist != hoist || !may.Has(a.srcBit(si)) {
			continue
		}
		s := e.stmt
		if s < 0 {
			continue
		}
		dup := false
		for _, x := range out {
			if x == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// stmtList renders " (statement 4)" / " (statements 4, 7)" for warnings.
func stmtList(ss []int) string {
	if len(ss) == 0 {
		return ""
	}
	var b strings.Builder
	if len(ss) == 1 {
		fmt.Fprintf(&b, " (statement %d)", ss[0])
		return b.String()
	}
	b.WriteString(" (statements ")
	for i, s := range ss {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", s)
	}
	b.WriteString(")")
	return b.String()
}
