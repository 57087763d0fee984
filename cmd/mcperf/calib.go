package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Every end-to-end time is converted to a reference speed of the machine,
// measured between epochs of the measured phase by a calibration kernel
// pinned to each CPU (see the package documentation).

// calibRef is the calibration kernel's time at the reference speed, about
// its median on the baseline machine (baseline.md). It is a fixed number,
// so the scaled timings of two commits compare directly.
const calibRef = 4 * time.Millisecond

// epochLen is how long connections send requests before the next
// calibration; a request in progress at the end finishes first.
const epochLen = 150 * time.Millisecond

// calibSink keeps the kernel's result alive, so the compiler cannot drop
// the work.
var calibSink atomic.Int64

type calibResp struct {
	ID      int64               `json:"id"`
	Cmd     string              `json:"cmd"`
	Vars    []map[string]string `json:"vars"`
	Display string              `json:"display"`
}

type calibNode struct {
	key  int
	name string
	kids []*calibNode
}

// calibKernel is fixed work of the kinds the daemon and its client do:
// JSON encoding and decoding by reflection, small allocations, map inserts
// and lookups, a sort and hashing. It uses the standard library alone, so
// no change to the repository's packages changes what it measures.
func calibKernel() int {
	r := calibResp{ID: 7, Cmd: "info", Display: "x = 42 (current)"}
	for i := 0; i < 8; i++ {
		r.Vars = append(r.Vars, map[string]string{"name": "v" + strconv.Itoa(i), "state": "recovered", "display": "v = 12345"})
	}
	n := 0
	for i := 0; i < 120; i++ {
		b, err := json.Marshal(&r)
		if err != nil {
			panic(err) // a fixed value of a fixed type always encodes
		}
		var o calibResp
		if err := json.Unmarshal(b, &o); err != nil {
			panic(err)
		}
		n += len(o.Vars)
	}
	h := sha256.New()
	buf := make([]byte, 1<<16)
	for i := 0; i < 4; i++ {
		h.Write(buf)
	}
	n += int(h.Sum(nil)[0])

	m := map[int]*calibNode{}
	var all []*calibNode
	for i := 0; i < 5000; i++ {
		c := &calibNode{key: (i * 7919) % 100003, name: strconv.Itoa(i)}
		if p := m[c.key%1000]; p != nil {
			p.kids = append(p.kids, c)
		}
		m[c.key] = c
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	return n + len(all[0].name) + len(m)
}

// calibrate times one run of the calibration kernel on each of cpus, all
// at once, each on a thread pinned to its CPU. The collector is off while
// they run and collects afterwards, so neither the kernel's garbage nor
// the size of mcperf's own heap changes what is timed, and the measured
// requests that follow inherit no garbage from it.
func calibrate(cpus []int) ([]time.Duration, error) {
	old := debug.SetGCPercent(-1)
	out := make([]time.Duration, len(cpus))
	errs := make([]error, len(cpus))
	var wg sync.WaitGroup
	for i, c := range cpus {
		wg.Add(1)
		go func(i, c int) {
			defer wg.Done()
			out[i], errs[i] = calibrateOn(c)
		}(i, c)
	}
	wg.Wait()
	debug.SetGCPercent(old)
	runtime.GC()
	return out, errors.Join(errs...)
}

// calibrateOn times the kernel on a thread pinned to cpu. The thread gets
// its CPU set back before it returns to the runtime: a thread that ended
// instead could be the one that started the daemon, whose death signal
// (Pdeathsig) would then kill it.
func calibrateOn(cpu int) (time.Duration, error) {
	runtime.LockOSThread()
	orig, err := getAffinity()
	if err != nil {
		runtime.UnlockOSThread()
		return 0, err
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(&one); err != nil {
		runtime.UnlockOSThread()
		return 0, fmt.Errorf("pinning a thread to CPU %d: %w", cpu, err)
	}
	t := time.Now()
	n := calibKernel()
	d := time.Since(t)
	calibSink.Add(int64(n))
	if err := setAffinity(&orig); err != nil {
		// Left locked, the pinned thread ends with this goroutine.
		return 0, fmt.Errorf("unpinning a thread: %w", err)
	}
	runtime.UnlockOSThread()
	return d, nil
}

// cpuMask is a sched_setaffinity CPU mask for up to 1024 CPUs.
type cpuMask [16]uint64

// getAffinity returns the calling thread's CPU set.
func getAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// setAffinity sets the calling thread's CPU set.
func setAffinity(m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on; the daemon it
// starts inherits the same set.
func allowedCPUs() ([]int, error) {
	m, err := getAffinity()
	if err != nil {
		return nil, err
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// busyTicks reads each CPU's busy time from /proc/stat, in clock ticks:
// user, nice, system, irq and softirq.
func busyTicks(cpus []int) ([]float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	byCPU := map[string][]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 7 && strings.HasPrefix(f[0], "cpu") {
			byCPU[f[0]] = f[1:]
		}
	}
	out := make([]float64, len(cpus))
	for i, c := range cpus {
		f, ok := byCPU["cpu"+strconv.Itoa(c)]
		if !ok {
			return nil, fmt.Errorf("/proc/stat has no line for CPU %d", c)
		}
		for _, k := range []int{0, 1, 2, 5, 6} {
			v, err := strconv.ParseFloat(f[k], 64)
			if err != nil {
				return nil, fmt.Errorf("/proc/stat: %w", err)
			}
			out[i] += v
		}
	}
	return out, nil
}

// mark is one epoch boundary: each CPU's busy ticks when the epoch before
// it ended, the kernel's time on each CPU, and the busy ticks when the
// next epoch starts (the calibration's own ticks fall between the two).
type mark struct {
	end   []float64
	kern  []time.Duration
	start []float64
}

// epochs records the boundaries of a measured stretch and the wall time
// of each epoch between them: marks[e] is before epoch e, marks[e+1]
// after it.
type epochs struct {
	cpus  []int
	marks []mark
	wall  []time.Duration // calibrations excluded
}

// boundary ends an epoch (or starts the first): it reads the CPUs' busy
// ticks, calibrates every CPU and reads the ticks again.
func (ep *epochs) boundary() error {
	end, err := busyTicks(ep.cpus)
	if err != nil {
		return err
	}
	kern, err := calibrate(ep.cpus)
	if err != nil {
		return err
	}
	start, err := busyTicks(ep.cpus)
	if err != nil {
		return err
	}
	ep.marks = append(ep.marks, mark{end, kern, start})
	return nil
}

// scale converts a time measured during epoch e to the reference speed:
// the mean over CPUs of calibRef over the kernel's time on that CPU at the
// epoch's two ends, each CPU weighted by its busy ticks during the epoch.
// Half a tick is added to each weight, so an epoch in which no tick
// landed weighs the CPUs equally.
func (ep *epochs) scale(e int) float64 {
	a, b := ep.marks[e], ep.marks[e+1]
	var sum, weights float64
	for c := range ep.cpus {
		w := b.end[c] - a.start[c] + 0.5
		k := float64(a.kern[c]+b.kern[c]) / 2
		sum += w * float64(calibRef) / k
		weights += w
	}
	return sum / weights
}

// at returns d, measured during epoch e, at the reference speed.
func (ep *epochs) at(e int, d time.Duration) time.Duration {
	return time.Duration(float64(d) * ep.scale(e))
}

// refWall is the length of all epochs at the reference speed.
func (ep *epochs) refWall() time.Duration {
	var t time.Duration
	for e, w := range ep.wall {
		t += ep.at(e, w)
	}
	return t
}

// speed is how fast the machine ran relative to the reference: the median
// over epochs of the busy-weighted scale.
func (ep *epochs) speed() float64 {
	v := make([]float64, len(ep.wall))
	for e := range ep.wall {
		v[e] = ep.scale(e)
	}
	_, med, _ := quartiles(v)
	return med
}
