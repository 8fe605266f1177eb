package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// The filter kernels read a column's typed lane when Uniform names it
// and box cell by cell otherwise. Whatever the representation — single
// lane, widened at any position, built cell by cell or in runs — they
// must keep exactly the rows pred.Op.Holds / tuple.Equal keep over the
// plain values.

var kernelCells = []tuple.Value{
	tuple.I(-3), tuple.I(0), tuple.I(7), tuple.I(math.MaxInt64),
	tuple.F(-1.5), tuple.F(0), tuple.F(7), tuple.F(math.NaN()),
	tuple.S(""), tuple.S("a"), tuple.S("b"),
}

// kernelCol builds ref as a column, appending the cells in runs of
// random length so a type change can fall inside a bulk append.
func kernelCol(rng *rand.Rand, ref []tuple.Value) *vec.Col {
	c := &vec.Col{}
	for lo := 0; lo < len(ref); {
		hi := lo + 1 + rng.Intn(len(ref)-lo)
		var src vec.Col
		for _, v := range ref[lo:hi] {
			src.Append(v)
		}
		c.AppendRange(&src, 0, hi-lo)
		lo = hi
	}
	return c
}

func TestKernelsMatchBoxedReference(t *testing.T) {
	ops := []pred.Op{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}
	const n = 8
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for at := 0; at <= n; at++ { // at == n: the type never changes
			// Cells of one type up to at, any type from there on.
			base := rng.Intn(3) * 4 // kernelCells holds the types in blocks
			pick := func(i int) tuple.Value {
				if i < at {
					return kernelCells[base+rng.Intn(3)]
				}
				return kernelCells[rng.Intn(len(kernelCells))]
			}
			left, right := make([]tuple.Value, n), make([]tuple.Value, n)
			for i := 0; i < n; i++ {
				left[i], right[i] = pick(i), pick(i)
			}
			lc, rc := kernelCol(rng, left), kernelCol(rng, right)
			sel := []int{0, 1, 2, 4, 5, 7} // a selection with holes
			name := fmt.Sprintf("seed %d change at %d", seed, at)

			for _, op := range ops {
				for _, val := range kernelCells {
					var want []int
					for _, i := range sel {
						if op.Holds(left[i], val) {
							want = append(want, i)
						}
					}
					got := colpage.Narrow(lc, op, val, append([]int(nil), sel...))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: colpage.Narrow(%v %v %v) kept %v, want %v", name, left, op, val, got, want)
					}
				}
			}
			var want []int
			for _, i := range sel {
				if tuple.Equal(left[i], right[i]) {
					want = append(want, i)
				}
			}
			if got := eqKernel(lc, rc, append([]int(nil), sel...)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: eqKernel(%v, %v) kept %v, want %v", name, left, right, got, want)
			}
		}
	}
}
