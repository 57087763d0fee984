package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Times are nanoseconds since the replay began.
// A span whose parent is a server.serve span is a library root: the
// replay times the library calls beside Serve, not inside it, so a root
// is the request's logical child, not a child in time. Every other parent
// contains its children in time.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: none
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Req      int64  `json:"req"`
	Workload string `json:"workload"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory. The shadow stack calls it from one
// goroutine, except that analysis workers may end up in the spill codec;
// the mutex covers that.
type recorder struct {
	mu       sync.Mutex
	on       bool
	t0       time.Time
	workload string
	req      int64
	spans    []span
	stack    []int // indexes of open spans
	root     int   // ID of the current request's server.serve span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span under parent and returns its ID.
func (r *recorder) add(name string, start, end int64, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(name, start, end, parent)
}

func (r *recorder) addLocked(name string, start, end int64, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Req: r.req, Workload: r.workload})
	return id
}

// request starts a request: its server.serve span, to which the library
// roots that follow attach.
func (r *recorder) request(req int64, start time.Time, d time.Duration) {
	if !r.on {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.req = req
	s := int64(start.Sub(r.t0))
	r.root = r.addLocked("server.serve", s, s+int64(d), 0)
}

// begin opens a span under the innermost open one (or the request).
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := r.root
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	t := r.now()
	r.addLocked(name, t, t, parent)
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span begin returned, which must be the innermost.
func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// cancel drops the innermost span when the call it timed did no work
// worth a row (an analysis that was already built); its time stays with
// its parent.
func (r *recorder) cancel(i int) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stack = r.stack[:len(r.stack)-1]
	if i == len(r.spans)-1 {
		r.spans = r.spans[:i]
	} else {
		// A child was recorded meanwhile; keep the span.
		r.spans[i].End = r.now()
	}
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: the part of its
// duration no child covers. Children are first clipped to their parent's
// interval. Where overlapping children run at once, each instant is
// shared equally among the innermost spans running at it, so concurrent
// siblings split the time they overlap and the self times of a tree add
// up to exactly its root's duration. Spans parented to a server.serve
// span are treated as roots (see span).
func selfTimes(spans []span) map[int]float64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	kids := map[int][]int{}
	var roots []int
	for i, s := range spans {
		if s.Name == "server.serve" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || spans[p].Name == "server.serve" {
			roots = append(roots, i)
			continue
		}
		kids[p] = append(kids[p], i)
	}
	self := map[int]float64{}
	type iv struct {
		i          int
		start, end int64
		parent     int // index into the tree slice, -1 for the root
	}
	for _, root := range roots {
		// Collect the tree with clipped intervals.
		tree := []iv{{root, spans[root].Start, spans[root].End, -1}}
		for k := 0; k < len(tree); k++ {
			for _, c := range kids[tree[k].i] {
				s, e := max(spans[c].Start, tree[k].start), min(spans[c].End, tree[k].end)
				if e < s {
					e = s
				}
				tree = append(tree, iv{c, s, e, k})
			}
		}
		var cuts []int64
		for _, t := range tree {
			cuts = append(cuts, t.start, t.end)
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		self[spans[root].ID] += 0
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if a == b {
				continue
			}
			active := make([]bool, len(tree))
			for j, t := range tree {
				active[j] = t.start <= a && t.end >= b
			}
			hasActiveKid := make([]bool, len(tree))
			for j, t := range tree {
				if active[j] && t.parent >= 0 {
					hasActiveKid[t.parent] = true
				}
			}
			var leaves []int
			for j := range tree {
				if active[j] && !hasActiveKid[j] {
					leaves = append(leaves, j)
				}
			}
			share := float64(b-a) / float64(len(leaves))
			for _, j := range leaves {
				self[spans[tree[j].i].ID] += share
			}
		}
	}
	return self
}
