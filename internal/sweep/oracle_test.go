package sweep

import (
	"math"

	"gals/internal/timing"
)

// Summarize folds a full [config][benchmark] times matrix into a Summary —
// the reference the streaming path is tested against.
func Summarize(times [][]timing.FS) *Summary {
	nspecs := 0
	if len(times) > 0 {
		nspecs = len(times[0])
	}
	a := newSummaryAcc(nspecs, len(times))
	for ci, row := range times {
		a.fold(ci, row)
	}
	return a.sum
}

// BestOverall picks the configuration with the best (lowest) geometric-mean
// run time across all benchmarks — the paper's "best overall" machine.
// Configurations with any zero or negative run time (a failed or empty run)
// score +Inf and can never win; it returns -1 when times is empty or no
// configuration has a finite score.
func BestOverall(times [][]timing.FS) int {
	best, bestScore := -1, math.Inf(1)
	for ci, row := range times {
		score := 0.0
		for _, t := range row {
			score += logFS(t)
		}
		if score < bestScore {
			best, bestScore = ci, score
		}
	}
	return best
}

// BestPerApp picks, for each benchmark, the configuration with the lowest
// run time (the Program-Adaptive selection).
func BestPerApp(times [][]timing.FS) []int {
	if len(times) == 0 {
		return nil
	}
	n := len(times[0])
	best := make([]int, n)
	for si := 0; si < n; si++ {
		for ci := range times {
			if times[ci][si] < times[best[si]][si] {
				best[si] = ci
			}
		}
	}
	return best
}
