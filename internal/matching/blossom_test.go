package matching

import (
	"errors"
	"math"
	"testing"

	"surfnet/internal/rng"
)

// bruteForce finds the optimal perfect matching weight by bitmask DP,
// for cross-checking (n <= 16). Returns +Inf when no perfect matching exists.
func bruteForce(n int, edges []Edge) float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = math.Inf(1)
		}
	}
	for _, e := range edges {
		if e.Weight < w[e.U][e.V] {
			w[e.U][e.V] = e.Weight
			w[e.V][e.U] = e.Weight
		}
	}
	dp := make([]float64, 1<<n)
	for i := range dp {
		dp[i] = math.Inf(1)
	}
	dp[0] = 0
	for mask := 0; mask < 1<<n; mask++ {
		if math.IsInf(dp[mask], 1) {
			continue
		}
		// Lowest unmatched vertex.
		first := -1
		for v := 0; v < n; v++ {
			if mask&(1<<v) == 0 {
				first = v
				break
			}
		}
		if first < 0 {
			continue
		}
		for u := first + 1; u < n; u++ {
			if mask&(1<<u) != 0 || math.IsInf(w[first][u], 1) {
				continue
			}
			next := mask | 1<<first | 1<<u
			if c := dp[mask] + w[first][u]; c < dp[next] {
				dp[next] = c
			}
		}
	}
	return dp[1<<n-1]
}

// checkMatching validates that mate is a perfect matching over the edges and
// returns its weight.
func checkMatching(t *testing.T, n int, edges []Edge, mate []int) float64 {
	t.Helper()
	if len(mate) != n {
		t.Fatalf("mate has %d entries, want %d", len(mate), n)
	}
	best := make(map[[2]int]float64)
	for _, e := range edges {
		k := [2]int{min(e.U, e.V), max(e.U, e.V)}
		if w, ok := best[k]; !ok || e.Weight < w {
			best[k] = e.Weight
		}
	}
	total := 0.0
	for v := 0; v < n; v++ {
		u := mate[v]
		if u < 0 || u >= n || u == v {
			t.Fatalf("mate[%d] = %d invalid", v, u)
		}
		if mate[u] != v {
			t.Fatalf("mate not symmetric at %d <-> %d", v, u)
		}
		if v < u {
			w, ok := best[[2]int{v, u}]
			if !ok {
				t.Fatalf("matched pair (%d,%d) has no edge", v, u)
			}
			total += w
		}
	}
	return total
}

func TestTrivialCases(t *testing.T) {
	mate, total, err := MinWeightPerfect(0, nil)
	if err != nil || len(mate) != 0 || total != 0 {
		t.Fatalf("empty graph: %v %v %v", mate, total, err)
	}
	if _, _, err := MinWeightPerfect(3, nil); err == nil {
		t.Fatal("odd vertex count must fail")
	}
	mate, total, err = MinWeightPerfect(2, []Edge{{U: 0, V: 1, Weight: 2.5}})
	if err != nil || mate[0] != 1 || mate[1] != 0 || math.Abs(total-2.5) > 1e-9 {
		t.Fatalf("single edge: %v %v %v", mate, total, err)
	}
}

func TestInputValidation(t *testing.T) {
	if _, _, err := MinWeightPerfect(2, []Edge{{U: 0, V: 2, Weight: 1}}); err == nil {
		t.Error("out-of-range endpoint must fail")
	}
	if _, _, err := MinWeightPerfect(2, []Edge{{U: 0, V: 0, Weight: 1}}); err == nil {
		t.Error("self-loop must fail")
	}
	if _, _, err := MinWeightPerfect(2, []Edge{{U: 0, V: 1, Weight: -1}}); err == nil {
		t.Error("negative weight must fail")
	}
	if _, _, err := MinWeightPerfect(2, []Edge{{U: 0, V: 1, Weight: math.NaN()}}); err == nil {
		t.Error("NaN weight must fail")
	}
}

func TestNoPerfectMatching(t *testing.T) {
	// Star K_{1,3}: 4 vertices, no perfect matching.
	edges := []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}}
	if _, _, err := MinWeightPerfect(4, edges); err == nil {
		t.Fatal("star graph should have no perfect matching")
	}
	// Isolated vertex.
	if _, _, err := MinWeightPerfect(4, []Edge{{0, 1, 1}, {1, 2, 1}}); err == nil {
		t.Fatal("isolated vertex should fail")
	}
	// Infinite-weight edges count as absent.
	if _, _, err := MinWeightPerfect(2, []Edge{{0, 1, math.Inf(1)}}); err == nil {
		t.Fatal("all edges absent should fail")
	}
}

func TestSquare(t *testing.T) {
	// 4-cycle with one cheap diagonal pairing.
	edges := []Edge{
		{0, 1, 1}, {1, 2, 10}, {2, 3, 1}, {3, 0, 10},
	}
	mate, total, err := MinWeightPerfect(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	got := checkMatching(t, 4, edges, mate)
	if math.Abs(total-2) > 1e-6 || math.Abs(got-2) > 1e-6 {
		t.Fatalf("total = %v, want 2", total)
	}
}

func TestForcedBlossom(t *testing.T) {
	// Triangle 0-1-2 plus pendant edges 0-3, 1-4, 2-5: the optimum must
	// shrink the odd cycle to see that each triangle vertex pairs with its
	// pendant is infeasible in combination — exactly one triangle edge is
	// used, plus one pendant pair... with 6 vertices the matching takes
	// one triangle edge and the two pendants of its endpoints? No: if the
	// matching uses triangle edge (0,1), vertices 2,3,4,5 remain and only
	// edges 2-5 exist among them plus 3,4 isolated -> infeasible. So the
	// optimum pairs each triangle vertex with its pendant.
	edges := []Edge{
		{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
		{0, 3, 5}, {1, 4, 6}, {2, 5, 7},
		{3, 4, 100},
	}
	mate, total, err := MinWeightPerfect(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkMatching(t, 6, edges, mate)
	want := bruteForce(6, edges)
	if math.Abs(total-want) > 1e-6 {
		t.Fatalf("total = %v, brute force = %v", total, want)
	}
}

func TestParallelEdgesKeepLightest(t *testing.T) {
	edges := []Edge{{0, 1, 9}, {0, 1, 2}, {0, 1, 4}}
	_, total, err := MinWeightPerfect(2, edges)
	if err != nil || math.Abs(total-2) > 1e-9 {
		t.Fatalf("total = %v err=%v, want lightest parallel edge 2", total, err)
	}
}

func TestZeroWeights(t *testing.T) {
	// All-zero weights: any perfect matching is optimal; must terminate.
	var edges []Edge
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			edges = append(edges, Edge{u, v, 0})
		}
	}
	mate, total, err := MinWeightPerfect(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkMatching(t, 8, edges, mate)
	if total != 0 {
		t.Fatalf("total = %v, want 0", total)
	}
}

func TestRandomCompleteAgainstBruteForce(t *testing.T) {
	src := rng.New(2024)
	for trial := 0; trial < 300; trial++ {
		n := 2 * (1 + src.IntN(5)) // 2..10
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, Edge{u, v, src.Range(0, 10)})
			}
		}
		mate, total, err := MinWeightPerfect(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := checkMatching(t, n, edges, mate)
		want := bruteForce(n, edges)
		if math.Abs(got-want) > 1e-5 || math.Abs(total-want) > 1e-5 {
			t.Fatalf("trial %d (n=%d): got %v (reported %v), brute force %v",
				trial, n, got, total, want)
		}
	}
}

func TestRandomSparseAgainstBruteForce(t *testing.T) {
	src := rng.New(777)
	feasible, infeasible := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 * (2 + src.IntN(4)) // 4..10
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if src.Bool(0.45) {
					edges = append(edges, Edge{u, v, src.Range(0.1, 5)})
				}
			}
		}
		want := bruteForce(n, edges)
		mate, total, err := MinWeightPerfect(n, edges)
		if math.IsInf(want, 1) {
			infeasible++
			if err == nil {
				t.Fatalf("trial %d: matcher found a matching where none exists", trial)
			}
			continue
		}
		feasible++
		if err != nil {
			t.Fatalf("trial %d: matcher failed on feasible graph: %v", trial, err)
		}
		got := checkMatching(t, n, edges, mate)
		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("trial %d (n=%d): got %v, want %v", trial, n, got, want)
		}
		_ = total
	}
	if feasible < 50 || infeasible < 20 {
		t.Logf("coverage note: %d feasible, %d infeasible trials", feasible, infeasible)
	}
}

func TestIntegerWeightsDegenerate(t *testing.T) {
	// Many equal weights force degenerate dual updates and blossoms.
	src := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		n := 2 * (2 + src.IntN(4))
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, Edge{u, v, float64(src.IntN(3))})
			}
		}
		mate, _, err := MinWeightPerfect(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := checkMatching(t, n, edges, mate)
		want := bruteForce(n, edges)
		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("trial %d (n=%d): got %v, want %v", trial, n, got, want)
		}
	}
}

// FuzzBlossom checks MinWeightPerfect against the bruteForce oracle on small
// graphs decoded from the input: the first byte picks n in [0,10], and each
// following byte triple is an edge (u, v, weight) with endpoints taken mod n
// and an integer weight 0–255 (self-loops skipped; parallel edges kept). The
// matcher must return a valid perfect matching of the oracle's weight, and
// ErrNoPerfectMatching exactly when the oracle finds none. Its seed corpus
// is in testdata/fuzz/FuzzBlossom.
func FuzzBlossom(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 11
		var edges []Edge
		for i := 1; n > 0 && i+2 < len(data) && len(edges) < 64; i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				edges = append(edges, Edge{U: u, V: v, Weight: float64(data[i+2])})
			}
		}
		want := bruteForce(n, edges)
		mate, total, err := MinWeightPerfect(n, edges)
		if math.IsInf(want, 1) {
			if !errors.Is(err, ErrNoPerfectMatching) {
				t.Fatalf("n=%d edges=%v: no perfect matching exists, matcher returned %v, %v", n, edges, mate, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("n=%d edges=%v: matcher failed on a feasible graph: %v", n, edges, err)
		}
		if got := checkMatching(t, n, edges, mate); got != want || total != want {
			t.Fatalf("n=%d edges=%v: matching weighs %v (reported %v), want %v", n, edges, got, total, want)
		}
	})
}

func TestLargeSmoke(t *testing.T) {
	// 120-vertex complete graph: validity and a sanity lower bound.
	src := rng.New(5150)
	const n = 120
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{u, v, src.Range(1, 100)})
		}
	}
	mate, total, err := MinWeightPerfect(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	got := checkMatching(t, n, edges, mate)
	if math.Abs(got-total) > 1e-4 {
		t.Fatalf("reported total %v != recomputed %v", total, got)
	}
	// Lower bound: half the sum over vertices of their cheapest edge.
	minEdge := make([]float64, n)
	for i := range minEdge {
		minEdge[i] = math.Inf(1)
	}
	for _, e := range edges {
		if e.Weight < minEdge[e.U] {
			minEdge[e.U] = e.Weight
		}
		if e.Weight < minEdge[e.V] {
			minEdge[e.V] = e.Weight
		}
	}
	lb := 0.0
	for _, w := range minEdge {
		lb += w / 2
	}
	if total < lb-1e-6 {
		t.Fatalf("total %v below lower bound %v", total, lb)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
