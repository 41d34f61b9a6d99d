package stats

import (
	"reflect"
	"testing"
)

// setIntLeaves sets every int64 leaf reachable from v (fields, fixed arrays,
// nested structs) to val, and returns how many leaves were set. Slices are
// handled by the caller; float fields (per-run series, not merged) are skipped.
func setIntLeaves(v reflect.Value, val int64) int {
	switch v.Kind() {
	case reflect.Int64:
		v.SetInt(val)
		return 1
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += setIntLeaves(v.Field(i), val)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += setIntLeaves(v.Index(i), val)
		}
		return n
	default:
		return 0
	}
}

// countNonzeroIntLeaves counts int64 leaves with a nonzero value.
func countNonzeroIntLeaves(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Int64:
		if v.Int() != 0 {
			return 1
		}
		return 0
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += countNonzeroIntLeaves(v.Field(i))
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += countNonzeroIntLeaves(v.Index(i))
		}
		return n
	default:
		return 0
	}
}

// TestFoldIntoCoversAllCounters sets every integer counter of a source Stats
// to a nonzero value by reflection and checks that FoldInto propagates each
// one into a zero destination. A counter added to Stats but forgotten in
// FoldInto shows up here as a zero leaf.
func TestFoldIntoCoversAllCounters(t *testing.T) {
	src := New()
	want := setIntLeaves(reflect.ValueOf(src).Elem(), 7)
	if want == 0 {
		t.Fatal("reflection found no int64 counters in Stats")
	}
	src.NSUICodeBytes = []int64{7, 7, 7}

	dst := New()
	FoldInto(dst, src)

	got := countNonzeroIntLeaves(reflect.ValueOf(dst).Elem())
	if got != want {
		t.Fatalf("FoldInto propagated %d of %d integer counters; a Stats field is missing from FoldInto", got, want)
	}
	if len(dst.NSUICodeBytes) != 3 {
		t.Fatalf("NSUICodeBytes not merged: got len %d, want 3", len(dst.NSUICodeBytes))
	}
	for i, b := range dst.NSUICodeBytes {
		if b != 7 {
			t.Fatalf("NSUICodeBytes[%d] = %d, want 7", i, b)
		}
	}

	// Sums must accumulate and the high-water mark must max-merge.
	src2 := New()
	src2.DRAMReads = 3
	src2.HMCOverflowHWM = 2 // below dst's 7: must not regress
	FoldInto(dst, src2)
	if dst.DRAMReads != 10 {
		t.Fatalf("DRAMReads = %d after second fold, want 10", dst.DRAMReads)
	}
	if dst.HMCOverflowHWM != 7 {
		t.Fatalf("HMCOverflowHWM = %d, want 7 (max-merge)", dst.HMCOverflowHWM)
	}
}
