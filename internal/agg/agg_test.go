package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountSumAvg(t *testing.T) {
	for _, k := range []Kind{Count, Sum, Avg} {
		s := NewState(k)
		for _, v := range []float64{1, 2, 3, 4} {
			s.Insert(v)
		}
		v, ok := s.Value()
		if !ok {
			t.Fatalf("%s of nonempty set undefined", k)
		}
		var want float64
		switch k {
		case Count:
			want = 4
		case Sum:
			want = 10
		case Avg:
			want = 2.5
		}
		if v != want {
			t.Errorf("%s = %v, want %v", k, v, want)
		}
		if need := s.Delete(2); need {
			t.Errorf("%s.Delete reported recompute", k)
		}
		v, _ = s.Value()
		switch k {
		case Count:
			want = 3
		case Sum:
			want = 8
		case Avg:
			want = 8.0 / 3
		}
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("%s after delete = %v, want %v", k, v, want)
		}
	}
}

func TestEmptyAggregates(t *testing.T) {
	if v, ok := NewState(Count).Value(); !ok || v != 0 {
		t.Errorf("empty COUNT = %v ok=%v, want 0 true", v, ok)
	}
	if v, ok := NewState(Sum).Value(); !ok || v != 0 {
		t.Errorf("empty SUM = %v ok=%v, want 0 true", v, ok)
	}
	for _, k := range []Kind{Avg, Min, Max} {
		if _, ok := NewState(k).Value(); ok {
			t.Errorf("empty %s should be undefined", k)
		}
	}
}

func TestMinMaxInsert(t *testing.T) {
	mn, mx := NewState(Min), NewState(Max)
	for _, v := range []float64{5, 3, 8, 3, 9, 1} {
		mn.Insert(v)
		mx.Insert(v)
	}
	if v, _ := mn.Value(); v != 1 {
		t.Errorf("MIN = %v", v)
	}
	if v, _ := mx.Value(); v != 9 {
		t.Errorf("MAX = %v", v)
	}
}

func TestMinMaxDeleteRecompute(t *testing.T) {
	s := NewState(Min)
	for _, v := range []float64{5, 3, 8} {
		s.Insert(v)
	}
	if need := s.Delete(8); need {
		t.Error("deleting non-extreme value requested recompute")
	}
	if need := s.Delete(3); !need {
		t.Error("deleting the minimum did not request recompute")
	}
	s.Rebuild([]float64{5})
	if v, ok := s.Value(); !ok || v != 5 {
		t.Errorf("after rebuild MIN = %v ok=%v", v, ok)
	}
}

func TestMaxDeleteRecompute(t *testing.T) {
	s := NewState(Max)
	s.Insert(2)
	s.Insert(7)
	if need := s.Delete(7); !need {
		t.Error("deleting the maximum did not request recompute")
	}
}

func TestDeleteToEmpty(t *testing.T) {
	for _, k := range []Kind{Count, Sum, Avg, Min, Max} {
		s := NewState(k)
		s.Insert(4)
		if need := s.Delete(4); need {
			t.Errorf("%s: delete-to-empty requested recompute", k)
		}
		if s.Count() != 0 {
			t.Errorf("%s: count = %d after emptying", k, s.Count())
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := NewState(Avg)
	s.Insert(3.5)
	s.Insert(-2)
	buf := s.Encode(nil)
	if len(buf) != EncodedSize {
		t.Errorf("encoded %d bytes, want %d", len(buf), EncodedSize)
	}
	got, err := DecodeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Value()
	v2, ok := got.Value()
	if !ok || v1 != v2 || got.Kind() != Avg || got.Count() != 2 {
		t.Errorf("round trip: %v vs %v", s, got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeState([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer accepted")
	}
	bad := make([]byte, EncodedSize)
	bad[0] = 0xFF
	if _, err := DecodeState(bad); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Property: after any sequence of inserts followed by deleting a
// subset (with rebuilds when requested), SUM/COUNT/AVG/MIN/MAX agree
// with direct computation over the survivors.
func TestPropertyAgreesWithDirectComputation(t *testing.T) {
	fn := func(seed int64, nRaw, delRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(1000)) / 4
		}
		nDel := int(delRaw) % n
		states := map[Kind]*State{}
		for _, k := range []Kind{Count, Sum, Avg, Min, Max} {
			s := NewState(k)
			for _, v := range vals {
				s.Insert(v)
			}
			states[k] = s
		}
		survivors := append([]float64(nil), vals...)
		for i := 0; i < nDel; i++ {
			idx := rng.Intn(len(survivors))
			v := survivors[idx]
			survivors = append(survivors[:idx], survivors[idx+1:]...)
			for _, s := range states {
				if s.Delete(v) {
					s.Rebuild(survivors)
				}
			}
		}
		var sum float64
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range survivors {
			sum += v
			mn = math.Min(mn, v)
			mx = math.Max(mx, v)
		}
		if v, _ := states[Count].Value(); v != float64(len(survivors)) {
			return false
		}
		if v, _ := states[Sum].Value(); math.Abs(v-sum) > 1e-6 {
			return false
		}
		if len(survivors) == 0 {
			for _, k := range []Kind{Avg, Min, Max} {
				if _, ok := states[k].Value(); ok {
					return false
				}
			}
			return true
		}
		if v, _ := states[Avg].Value(); math.Abs(v-sum/float64(len(survivors))) > 1e-6 {
			return false
		}
		if v, _ := states[Min].Value(); v != mn {
			return false
		}
		if v, _ := states[Max].Value(); v != mx {
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := NewState(Avg)
	for i := 0; i < b.N; i++ {
		s.Insert(float64(i))
	}
}

func TestVarAndStdDev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9} // classic: mean 5, var 4, sd 2
	v, sd := NewState(Var), NewState(StdDev)
	for _, x := range vals {
		v.Insert(x)
		sd.Insert(x)
	}
	if got, ok := v.Value(); !ok || math.Abs(got-4) > 1e-9 {
		t.Errorf("VAR = %v ok=%v, want 4", got, ok)
	}
	if got, ok := sd.Value(); !ok || math.Abs(got-2) > 1e-9 {
		t.Errorf("STDDEV = %v ok=%v, want 2", got, ok)
	}
	// Incremental delete: removing 9 and 2 keeps agreement with direct
	// computation over the survivors.
	for _, x := range []float64{9, 2} {
		if v.Delete(x) || sd.Delete(x) {
			t.Error("Var/StdDev delete requested recompute")
		}
	}
	rest := []float64{4, 4, 4, 5, 5, 7}
	var mean, sq float64
	for _, x := range rest {
		mean += x
	}
	mean /= float64(len(rest))
	for _, x := range rest {
		sq += (x - mean) * (x - mean)
	}
	want := sq / float64(len(rest))
	if got, _ := v.Value(); math.Abs(got-want) > 1e-9 {
		t.Errorf("VAR after deletes = %v, want %v", got, want)
	}
	if got, _ := sd.Value(); math.Abs(got-math.Sqrt(want)) > 1e-9 {
		t.Errorf("STDDEV after deletes = %v, want %v", got, math.Sqrt(want))
	}
}

func TestVarEmptyAndSingle(t *testing.T) {
	s := NewState(Var)
	if _, ok := s.Value(); ok {
		t.Error("empty VAR should be undefined")
	}
	s.Insert(5)
	if got, ok := s.Value(); !ok || got != 0 {
		t.Errorf("single-value VAR = %v ok=%v, want 0", got, ok)
	}
}

func TestVarEncodeRoundTrip(t *testing.T) {
	s := NewState(StdDev)
	s.Insert(1)
	s.Insert(3)
	got, err := DecodeState(s.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Value()
	v2, ok := got.Value()
	if !ok || math.Abs(v1-v2) > 1e-12 {
		t.Errorf("round trip: %v vs %v", v1, v2)
	}
}
