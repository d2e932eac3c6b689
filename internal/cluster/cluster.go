// Package cluster implements the inter-process trace reduction of the
// paper's related work (§2: Nickolayev, Roth & Reed; Lee, Mendes & Kalé):
// processes with similar performance profiles are grouped by statistical
// clustering over per-location execution-time vectors using the Euclidean
// distance, and only one representative trace per cluster is kept. This
// is the axis *orthogonal* to the paper's contribution — the paper
// reduces each per-task trace internally; clustering reduces the number
// of per-task traces — and the two compose: cluster first, then reduce
// each representative with a similarity method.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// Profile is one rank's feature vector: total inclusive time per
// function, over the sorted union of function names in the trace.
type Profile struct {
	Rank   int
	Values []float64
}

// Profiles computes the per-rank execution profiles of t. All profiles
// share one dimension order (the sorted union of non-marker event names).
func Profiles(t *trace.Trace) []Profile {
	names := t.FunctionNames()
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	out := make([]Profile, t.NumRanks())
	for r := range t.Ranks {
		v := make([]float64, len(names))
		for _, e := range t.Ranks[r].Events {
			if e.Kind.IsMarker() {
				continue
			}
			v[index[e.Name]] += float64(e.Duration())
		}
		out[r] = Profile{Rank: r, Values: v}
	}
	return out
}

// euclidean returns the L2 distance between two equal-length vectors.
func euclidean(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// Clustering is the result of grouping ranks.
type Clustering struct {
	// Medoids lists the representative rank of each cluster.
	Medoids []int
	// Assign maps every rank to its cluster index (into Medoids).
	Assign []int
	// Cost is the total distance of ranks to their medoids.
	Cost float64
}

// ClusterSizes returns the number of ranks per cluster.
func (c *Clustering) ClusterSizes() []int {
	sizes := make([]int, len(c.Medoids))
	for _, ci := range c.Assign {
		sizes[ci]++
	}
	return sizes
}

// KMedoids clusters the profiles into k groups with a deterministic
// PAM-style alternation: medoids are seeded by a farthest-first sweep
// from rank 0, then assignment and medoid-update steps repeat until the
// cost stops improving. Euclidean distance follows Nickolayev and Lee.
func KMedoids(profiles []Profile, k int) (*Clustering, error) {
	n := len(profiles)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no profiles")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range 1..%d", k, n)
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = euclidean(profiles[i].Values, profiles[j].Values)
		}
	}
	// Farthest-first seeding from rank 0 (deterministic).
	medoids := []int{0}
	for len(medoids) < k {
		best, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			d := math.Inf(1)
			for _, m := range medoids {
				if dist[i][m] < d {
					d = dist[i][m]
				}
			}
			if d > bestD {
				best, bestD = i, d
			}
		}
		medoids = append(medoids, best)
	}
	assign := make([]int, n)
	var cost float64
	for iter := 0; iter < 100; iter++ {
		// Assignment step.
		cost = 0
		for i := 0; i < n; i++ {
			bestC, bestD := 0, math.Inf(1)
			for ci, m := range medoids {
				if dist[i][m] < bestD {
					bestC, bestD = ci, dist[i][m]
				}
			}
			assign[i] = bestC
			cost += bestD
		}
		// Medoid-update step: for each cluster pick the member minimizing
		// the within-cluster distance sum.
		changed := false
		for ci := range medoids {
			bestM, bestSum := medoids[ci], math.Inf(1)
			for i := 0; i < n; i++ {
				if assign[i] != ci {
					continue
				}
				var sum float64
				for j := 0; j < n; j++ {
					if assign[j] == ci {
						sum += dist[i][j]
					}
				}
				if sum < bestSum || (sum == bestSum && i < bestM) {
					bestM, bestSum = i, sum
				}
			}
			if bestM != medoids[ci] {
				medoids[ci] = bestM
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	sortClusters(medoids, assign)
	return &Clustering{Medoids: medoids, Assign: assign, Cost: cost}, nil
}

// sortClusters renumbers clusters by ascending medoid rank so results are
// stable for tests and display.
func sortClusters(medoids []int, assign []int) {
	order := make([]int, len(medoids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return medoids[order[a]] < medoids[order[b]] })
	remap := make([]int, len(medoids))
	newMedoids := make([]int, len(medoids))
	for newIdx, oldIdx := range order {
		remap[oldIdx] = newIdx
		newMedoids[newIdx] = medoids[oldIdx]
	}
	copy(medoids, newMedoids)
	for i, a := range assign {
		assign[i] = remap[a]
	}
}

// Reduced is an inter-process reduction: representative rank traces plus
// the rank→cluster assignment.
type Reduced struct {
	// Name is the source trace's name.
	Name string
	// Clustering records medoids and assignment.
	Clustering *Clustering
	// Representatives holds the medoid ranks' full event streams.
	Representatives []trace.RankTrace
}

// Reduce clusters t's ranks into k groups and keeps only the medoid
// traces.
func Reduce(t *trace.Trace, k int) (*Reduced, error) {
	c, err := KMedoids(Profiles(t), k)
	if err != nil {
		return nil, err
	}
	reps := make([]trace.RankTrace, len(c.Medoids))
	for i, m := range c.Medoids {
		reps[i] = t.Ranks[m]
	}
	return &Reduced{Name: t.Name, Clustering: c, Representatives: reps}, nil
}

// EncodedSize returns the byte size of the reduced form: the
// representative traces in the standard codec plus 4 bytes of cluster
// assignment per rank.
func (r *Reduced) EncodedSize() int64 {
	sub := &trace.Trace{Name: r.Name, Ranks: r.Representatives}
	return trace.EncodedSize(sub) + int64(4*len(r.Clustering.Assign))
}

// ProfileError reports the fidelity of the clustering as the root-mean-
// square relative error between each rank's profile and its medoid's
// profile — the quantitative stand-in for "the representative behaves
// like the cluster".
func ProfileError(t *trace.Trace, r *Reduced) float64 {
	profiles := Profiles(t)
	var sum float64
	var count int
	for i, p := range profiles {
		m := r.Clustering.Medoids[r.Clustering.Assign[i]]
		mp := profiles[m]
		for j := range p.Values {
			denom := math.Max(math.Abs(p.Values[j]), math.Abs(mp.Values[j]))
			if denom == 0 {
				continue
			}
			d := (p.Values[j] - mp.Values[j]) / denom
			sum += float64(d * d)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(count))
}
