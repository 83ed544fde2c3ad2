// Known-bad corpus for the allocfree checker: every allocating construct
// directly inside an annotated function, plus one reached through a
// two-deep unannotated call chain.

package allocfree

import "fmt"

type pair struct {
	x, y int
}

//lint:allocfree
func builtins(n int) map[int]int {
	return make(map[int]int, n) // want "make"
}

//lint:allocfree
func grows(xs []int, n int) []int {
	return append(xs, n) // want "append"
}

//lint:allocfree
func fresh() *pair {
	return new(pair) // want "new"
}

//lint:allocfree
func escapes() *pair {
	return &pair{x: 1} // want "escapes"
}

//lint:allocfree
func literal() []int {
	return []int{1, 2, 3} // want "slice literal"
}

//lint:allocfree
func concat(a, b string) string {
	return a + b // want "string concatenation"
}

//lint:allocfree
func convert(s string) []byte {
	return []byte(s) // want "string conversion"
}

//lint:allocfree
func format(p *pair) string {
	return fmt.Sprintf("pair=%v", p) // want "variadic call"
}

func sinkAny(v any) {}

//lint:allocfree
func box(v int) {
	sinkAny(v) // want "interface boxing"
}

//lint:allocfree
func captures(n int) int {
	f := func() int { return n } // want "function literal"
	return f()
}

//lint:allocfree
func spawns() {
	go sinkAny(nil) // want "go statement"
}

// The interprocedural case: the allocation is two unannotated frames
// down, and the diagnostic carries the chain.
//
//lint:allocfree
func viaHelpers(xs []int) int {
	return helperA(xs) // want "which allocates"
}

func helperA(xs []int) int {
	return helperB(xs)
}

func helperB(xs []int) int {
	ys := make([]int, len(xs))
	copy(ys, xs)
	return len(ys)
}

// Map writes may grow the map: an insert, an increment and a compound
// assignment are each flagged.
//
//lint:allocfree
func inserts(m map[int]int, k, v int) {
	m[k] = v  // want "map write"
	m[k]++    // want "map write"
	m[k] += v // want "map write"
}
