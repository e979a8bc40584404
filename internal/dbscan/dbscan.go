// Package dbscan implements one-dimensional DBSCAN clustering, used by the
// paper's SEC (statistical error correction) stage to bin sojourn-time
// prediction residuals by predicted sojourn time (§4.3).
//
// For 1-D data a sort-based sweep gives exact DBSCAN semantics in
// O(n log n) instead of the generic O(n^2) neighbourhood queries.
package dbscan

import "sort"

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Cluster runs DBSCAN over the 1-D points xs with radius eps and density
// threshold minPts. It returns a label per input point (cluster IDs are
// consecutive integers starting at 0; Noise marks outliers) and the number
// of clusters found.
func Cluster(xs []float64, eps float64, minPts int) (labels []int, nclusters int) {
	n := len(xs)
	labels = make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 || eps <= 0 || minPts <= 0 {
		return labels, 0
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	sorted := make([]float64, n)
	for i, id := range idx {
		sorted[i] = xs[id]
	}

	// neighbours returns the half-open index range [lo, hi) of points in
	// sorted order within eps of sorted[i].
	neighbours := func(i int) (lo, hi int) {
		lo = sort.SearchFloat64s(sorted, sorted[i]-eps)
		hi = sort.SearchFloat64s(sorted, sorted[i]+eps)
		// SearchFloat64s finds the first index >= target; extend hi over
		// points exactly at distance eps (DBSCAN uses <= eps).
		for hi < n && sorted[hi] <= sorted[i]+eps {
			hi++
		}
		return lo, hi
	}

	core := make([]bool, n)
	for i := 0; i < n; i++ {
		lo, hi := neighbours(i)
		core[i] = hi-lo >= minPts
	}

	slabels := make([]int, n)
	for i := range slabels {
		slabels[i] = Noise
	}
	cluster := 0
	for i := 0; i < n; i++ {
		if !core[i] || slabels[i] != Noise {
			continue
		}
		// Expand a new cluster from core point i with a worklist.
		slabels[i] = cluster
		work := []int{i}
		for len(work) > 0 {
			p := work[len(work)-1]
			work = work[:len(work)-1]
			lo, hi := neighbours(p)
			for q := lo; q < hi; q++ {
				if slabels[q] != Noise {
					continue
				}
				slabels[q] = cluster
				if core[q] {
					work = append(work, q)
				}
			}
		}
		cluster++
	}

	for i, id := range idx {
		labels[id] = slabels[i]
	}
	return labels, cluster
}

// Bin describes one residual bin produced by Bins: the value range of the
// clustered key dimension and the mean of the associated values.
type Bin struct {
	Lo, Hi    float64 // key range covered by the cluster (inclusive)
	MeanValue float64 // mean of vals for points in the cluster
	Count     int
}

// Bins clusters keys with DBSCAN and returns, per cluster, the key range
// and the mean of vals over the cluster's members. This is the SEC binning
// primitive: keys are predicted sojourn times, vals are prediction errors.
func Bins(keys, vals []float64, eps float64, minPts int) []Bin {
	if len(keys) != len(vals) {
		panic("dbscan: keys and vals length mismatch")
	}
	labels, k := Cluster(keys, eps, minPts)
	if k == 0 {
		return nil
	}
	bins := make([]Bin, k)
	for i := range bins {
		bins[i].Lo = 1e308
		bins[i].Hi = -1e308
	}
	for i, lb := range labels {
		if lb == Noise {
			continue
		}
		b := &bins[lb]
		if keys[i] < b.Lo {
			b.Lo = keys[i]
		}
		if keys[i] > b.Hi {
			b.Hi = keys[i]
		}
		b.MeanValue += vals[i]
		b.Count++
	}
	for i := range bins {
		if bins[i].Count > 0 {
			bins[i].MeanValue /= float64(bins[i].Count)
		}
	}
	sort.Slice(bins, func(a, b int) bool { return bins[a].Lo < bins[b].Lo })
	return bins
}

// Lookup returns the bin whose range contains key, or the nearest bin if
// key falls in a gap, or nil if bins is empty.
func Lookup(bins []Bin, key float64) *Bin {
	if len(bins) == 0 {
		return nil
	}
	i := sort.Search(len(bins), func(i int) bool { return bins[i].Hi >= key })
	if i == len(bins) {
		return &bins[len(bins)-1]
	}
	if key >= bins[i].Lo {
		return &bins[i]
	}
	// key falls in the gap before bins[i]; pick the nearer neighbour.
	if i == 0 {
		return &bins[0]
	}
	if key-bins[i-1].Hi <= bins[i].Lo-key {
		return &bins[i-1]
	}
	return &bins[i]
}
