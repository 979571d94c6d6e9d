package metrics

import (
	"reflect"
	"sync"
	"testing"
)

func TestLiveAndPeakTuples(t *testing.T) {
	var m Metrics
	m.AddLiveTuples(10)
	m.AddLiveTuples(5)
	if m.LiveTuples() != 15 || m.PeakTuples() != 15 {
		t.Fatalf("live %d peak %d", m.LiveTuples(), m.PeakTuples())
	}
	m.AddLiveTuples(-12)
	if m.LiveTuples() != 3 {
		t.Fatalf("live %d", m.LiveTuples())
	}
	if m.PeakTuples() != 15 {
		t.Fatalf("peak dropped to %d", m.PeakTuples())
	}
	m.AddLiveTuples(20)
	if m.PeakTuples() != 23 {
		t.Fatalf("peak %d, want 23", m.PeakTuples())
	}
}

func TestPeakTuplesConcurrent(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.AddLiveTuples(3)
				m.AddLiveTuples(-3)
			}
		}()
	}
	wg.Wait()
	if m.LiveTuples() != 0 {
		t.Fatalf("live %d after balanced adds", m.LiveTuples())
	}
	if m.PeakTuples() < 3 {
		t.Fatalf("peak %d", m.PeakTuples())
	}
}

func TestSnapshotAndTotals(t *testing.T) {
	var m Metrics
	m.BytesPushed.Add(100)
	m.BytesPulled.Add(50)
	m.BytesStolen.Add(25)
	m.Results.Add(7)
	m.AddLiveTuples(9)
	s := m.Snapshot()
	if s.BytesPushed != 100 || s.BytesPulled != 50 || s.BytesStolen != 25 || s.Results != 7 || s.PeakTuples != 9 {
		t.Fatalf("snapshot %+v", s)
	}
}

// fillDistinct sets every numeric leaf of v (recursing into structs) to
// base, base+1, ... in field order.
func fillDistinct(t *testing.T, v reflect.Value, base *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), base)
		}
	case reflect.Int64:
		v.SetInt(*base)
		*base++
	case reflect.Uint64:
		v.SetUint(uint64(*base))
		*base++
	default:
		t.Fatalf("Summary has a %s leaf: teach this test (and Summary.Add) how it folds", v.Kind())
	}
}

// TestSummaryAddFoldsEveryField walks Summary by reflection, so a field
// added to it and forgotten in Add — how delta runs came to report a zero
// kernel mix — fails here: folding into the zero Summary must reproduce
// every field, and folding a Summary into itself must double every counter
// (PeakTuples is a maximum, BatchRowsLast the last non-zero value).
func TestSummaryAddFoldsEveryField(t *testing.T) {
	var b Summary
	base := int64(1)
	fillDistinct(t, reflect.ValueOf(&b).Elem(), &base)

	if got := (Summary{}).Add(b); got != b {
		t.Errorf("zero.Add(b) dropped a field:\n got %+v\nwant %+v", got, b)
	}
	if got := b.Add(Summary{}); got != b {
		t.Errorf("b.Add(zero) changed a field:\n got %+v\nwant %+v", got, b)
	}

	var check func(path string, sum, one reflect.Value)
	check = func(path string, sum, one reflect.Value) {
		if one.Kind() == reflect.Struct {
			for i := 0; i < one.NumField(); i++ {
				check(path+"."+one.Type().Field(i).Name, sum.Field(i), one.Field(i))
			}
			return
		}
		want := 2 * one.Convert(reflect.TypeOf(int64(0))).Int()
		if path == ".PeakTuples" || path == ".BatchRowsLast" {
			want /= 2
		}
		if got := sum.Convert(reflect.TypeOf(int64(0))).Int(); got != want {
			t.Errorf("b.Add(b)%s = %d, want %d", path, got, want)
		}
	}
	check("", reflect.ValueOf(b.Add(b)), reflect.ValueOf(b))
}
