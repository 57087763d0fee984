// Package sched implements mcc's local (basic-block) list instruction
// scheduler. It reorders instructions within dependence constraints to hide
// operand latencies (the simulator models result latency: an instruction
// stalls until its operands are ready).
//
// Scheduling endangers variables in the sense of the companion paper
// [Adl-Tabatabai & Gross, PLDI '93]: an assignment moved above a breakpoint
// boundary updates its variable prematurely; one moved below leaves it
// stale. The scheduler preserves each instruction's OrigIdx so the debugger
// can detect such reorderings; marker pseudo-instructions act as
// scheduling barriers, pinning the bookkeeping points in place.
package sched

import (
	"sort"

	"repro/internal/mach"
)

// ScheduleFunc schedules one function. Before a block is reordered, every
// instruction records its pre-scheduling position (Instr.PreSched): the
// debugger compares those positions against a breakpoint's to detect
// assignments and stores moved across a stop.
func ScheduleFunc(f *mach.Func) {
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			in.PreSched = int32(i)
		}
		scheduleBlock(b)
	}
	f.Scheduled = true
}

// barrier reports whether in must not move (region boundary).
func barrier(in *mach.Instr) bool {
	switch in.Op {
	case mach.CALL, mach.PRINT, mach.MARKDEAD, mach.MARKAVAIL, mach.RET,
		mach.BNEZ, mach.J, mach.NOP:
		return true
	}
	return false
}

// isStore reports whether in writes memory.
func isStore(in *mach.Instr) bool {
	switch in.Op {
	case mach.SW, mach.FSW, mach.SWFP, mach.FSWFP:
		return true
	}
	return false
}

// isLoad reports whether in reads memory.
func isLoad(in *mach.Instr) bool {
	switch in.Op {
	case mach.LW, mach.FLW, mach.LWFP, mach.FLWFP:
		return true
	}
	return false
}

// scheduleBlock splits the block into regions at barriers and list-schedules
// each region.
func scheduleBlock(b *mach.Block) {
	var out []*mach.Instr
	region := func(ins []*mach.Instr) {
		out = append(out, listSchedule(ins)...)
	}
	start := 0
	for i, in := range b.Instrs {
		if barrier(in) {
			region(b.Instrs[start:i])
			out = append(out, in)
			start = i + 1
		}
	}
	region(b.Instrs[start:])
	b.Instrs = out
}

// listSchedule performs latency-weighted list scheduling of a straight-line
// region with no barriers.
func listSchedule(ins []*mach.Instr) []*mach.Instr {
	n := len(ins)
	if n <= 1 {
		return append([]*mach.Instr(nil), ins...)
	}

	// Dependence edges: succs[i] lists j > i depending on i.
	succs := make([][]int, n)
	npreds := make([]int, n)
	addDep := func(i, j int) {
		succs[i] = append(succs[i], j)
		npreds[j]++
	}

	type regKey struct {
		class mach.RegClass
		r     int32
	}
	lastDef := map[regKey]int{}
	lastUses := map[regKey][]int{}
	lastStore := -1

	var buf []mach.Opd
	for j, in := range ins {
		// Register dependences.
		buf = in.Uses(buf[:0])
		for _, u := range buf {
			k := regKey{u.Class, u.R}
			if i, ok := lastDef[k]; ok {
				addDep(i, j) // RAW
			}
			lastUses[k] = append(lastUses[k], j)
		}
		if d := in.Def(); d.IsReg() {
			k := regKey{d.Class, d.R}
			if i, ok := lastDef[k]; ok {
				addDep(i, j) // WAW
			}
			for _, i := range lastUses[k] {
				if i != j {
					addDep(i, j) // WAR
				}
			}
			lastDef[k] = j
			lastUses[k] = nil
		}
		// Memory dependences: stores order against all memory ops; loads
		// only against stores.
		if isStore(in) {
			for i := 0; i < j; i++ {
				if isStore(ins[i]) || isLoad(ins[i]) {
					addDep(i, j)
				}
			}
			lastStore = j
		} else if isLoad(in) && lastStore >= 0 {
			addDep(lastStore, j)
		}
	}

	// Critical-path heights.
	height := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		h := ins[i].Op.Latency()
		for _, j := range succs[i] {
			if height[j]+ins[i].Op.Latency() > h {
				h = height[j] + ins[i].Op.Latency()
			}
		}
		height[i] = h
	}

	// Cycle-aware list scheduling: among the ready instructions prefer
	// those whose operands are available this cycle (no stall), then the
	// longest critical path, then original order (deterministic).
	type regKey2 struct {
		class mach.RegClass
		r     int32
	}
	regReady := map[regKey2]int{}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if npreds[i] == 0 {
			ready = append(ready, i)
		}
	}
	earliest := func(i int) int {
		e := 0
		var ubuf []mach.Opd
		for _, u := range ins[i].Uses(ubuf) {
			if t := regReady[regKey2{u.Class, u.R}]; t > e {
				e = t
			}
		}
		return e
	}
	clock := 0
	var sched []*mach.Instr
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			ia, ib := ready[a], ready[b]
			sa, sb := earliest(ia) <= clock, earliest(ib) <= clock
			if sa != sb {
				return sa // stall-free first
			}
			if height[ia] != height[ib] {
				return height[ia] > height[ib]
			}
			return ia < ib
		})
		i := ready[0]
		ready = ready[1:]
		issue := earliest(i)
		if issue < clock {
			issue = clock
		}
		clock = issue + 1
		if d := ins[i].Def(); d.IsReg() {
			regReady[regKey2{d.Class, d.R}] = issue + ins[i].Op.Latency()
		}
		sched = append(sched, ins[i])
		for _, j := range succs[i] {
			npreds[j]--
			if npreds[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	return sched
}
