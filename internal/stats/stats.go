// Package stats provides the small statistical helpers the evaluation
// tables need: medians, geometric means, and ratio formatting.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MedianInt returns the median of xs (the lower-middle element for even
// lengths, matching common fuzzing-paper practice of reporting an
// actual run). It returns 0 for empty input.
func MedianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[(len(s)-1)/2]
}

// GeoMean returns the geometric mean of positive values; zero or
// negative entries are skipped (they would be undefined), and 0 is
// returned when nothing remains.
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio formats a ratio to two decimals, with "-" for non-positive
// denominators.
func Ratio(num, den float64) string {
	if den <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", num/den)
}
