package bench

import (
	"fmt"
	"sort"
	"time"

	"parconn"
)

// Median times fn over trials runs and returns the median duration — the
// paper's measurement protocol ("median of three trials", §5).
func Median(trials int, fn func()) time.Duration {
	if trials < 1 {
		trials = 1
	}
	times := make([]time.Duration, trials)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[trials/2]
}

// timeCC labels g with opt over trials runs and returns the median
// duration. The last run's labels are verified once the stopwatch has
// stopped, so no table reports the time of a wrong answer; a wrong answer
// panics, like a failed run.
func timeCC(g *parconn.Graph, opt parconn.Options, trials int) time.Duration {
	var labels []int32
	d := Median(trials, func() {
		var err error
		if labels, err = parconn.ConnectedComponents(g, opt); err != nil {
			panic(err)
		}
	})
	if err := parconn.VerifyLabeling(g, labels); err != nil {
		panic(fmt.Sprintf("%v labeled a graph of %d vertices wrongly: %v", opt.Algorithm, g.NumVertices(), err))
	}
	return d
}

// Seconds formats a duration the way the paper's tables do: seconds with
// three significant digits.
func Seconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s == 0:
		return "0"
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 10:
		return fmt.Sprintf("%.1f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}
