package main

import (
	"math"
	"testing"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	// serve(1) is a request; root(2) is its library root, [0,10].
	// a(3) [1,5] and b(4) [3,7] overlap; a1(5) [2,4] is inside a; c(6)
	// [8,12] runs past root and is clipped to [8,10].
	spans := []span{
		{ID: 1, Name: "server.serve", Start: 0, End: 3},
		{ID: 2, Parent: 1, Name: "root", Start: 0, End: 10},
		{ID: 3, Parent: 2, Name: "a", Start: 1, End: 5},
		{ID: 4, Parent: 2, Name: "b", Start: 3, End: 7},
		{ID: 5, Parent: 3, Name: "a1", Start: 2, End: 4},
		{ID: 6, Parent: 2, Name: "c", Start: 8, End: 12},
	}
	got := selfTimes(spans)
	// [0,1] root; [1,2] a; [2,3] a1; [3,4] a1 and b share; [4,5] a and b
	// share; [5,7] b; [7,8] root; [8,10] c.
	want := map[int]float64{2: 2, 3: 1.5, 4: 3, 5: 1.5, 6: 2}
	sum := 0.0
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", spans[id-1].Name, got[id], w)
		}
		sum += got[id]
	}
	if sum != 10 {
		t.Errorf("self times sum to %v, want the root's duration 10", sum)
	}
	if _, ok := got[1]; ok {
		t.Errorf("a server.serve span got a self time; its residual is computed per request")
	}
}
