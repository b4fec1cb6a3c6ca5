package stats_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestMedians(t *testing.T) {
	if stats.MedianInt(nil) != 0 {
		t.Error("empty median")
	}
	if stats.MedianInt([]int{5}) != 5 {
		t.Error("singleton")
	}
	if stats.MedianInt([]int{3, 1, 2}) != 2 {
		t.Error("odd")
	}
	// Even lengths report the lower-middle (an actual run's value).
	if stats.MedianInt([]int{4, 1, 3, 2}) != 2 {
		t.Error("even")
	}
}

func TestGeoMean(t *testing.T) {
	if got := stats.GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v", got)
	}
	if got := stats.GeoMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-9 {
		t.Errorf("geomean(ones) = %v", got)
	}
	// Zeros and negatives are skipped.
	if got := stats.GeoMean([]float64{0, -3, 4}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean with junk = %v", got)
	}
	if stats.GeoMean(nil) != 0 {
		t.Error("empty geomean")
	}
}

func TestMeanSumRatio(t *testing.T) {
	if stats.Ratio(1, 0) != "-" {
		t.Error("ratio zero denominator")
	}
	if stats.Ratio(3, 2) != "1.50" {
		t.Errorf("ratio = %s", stats.Ratio(3, 2))
	}
}

func TestMedianProperties(t *testing.T) {
	// The median is always an element of the (non-empty) input and does
	// not mutate its argument.
	err := quick.Check(func(xs []int) bool {
		if len(xs) == 0 {
			return stats.MedianInt(xs) == 0
		}
		orig := append([]int(nil), xs...)
		m := stats.MedianInt(xs)
		for i := range xs {
			if xs[i] != orig[i] {
				return false
			}
		}
		for _, x := range xs {
			if x == m {
				return true
			}
		}
		return false
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// Geomean of positive values lies between min and max.
	err := quick.Check(func(raw []uint16) bool {
		var xs []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r) + 1
			xs = append(xs, v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if len(xs) == 0 {
			return true
		}
		g := stats.GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
