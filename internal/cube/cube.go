// Package cube plays the role of KOJAK's CUBE viewer and its
// cross-experiment algebra for this study: it renders per-rank severity
// charts like the paper's Figures 4/7/8 and, more importantly, decides
// whether a reconstructed trace's diagnosis retains the performance
// trends of the full trace. The paper applied a subjective test under
// fixed guidelines; Compare encodes those guidelines as explicit rules so
// every method faces identical criteria.
package cube

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/expert"
)

// CompareOptions tunes the retention-of-trends rules.
type CompareOptions struct {
	// SignificanceFrac is the fraction of aggregate wall time
	// (NumRanks × WallTime) a cell's |total severity| must reach to be a
	// "performance trend" an analyst would act on.
	SignificanceFrac float64
	// TotalTolerance is the allowed relative deviation of a significant
	// cell's total severity.
	TotalTolerance float64
	// PatternThreshold is the minimum similarity (normalized dot product)
	// between full and reconstructed per-rank severity patterns.
	PatternThreshold float64
	// RankTolerance is the allowed per-rank severity deviation, relative
	// to the cell's largest full-trace rank severity — the paper's
	// "approximately the same severity ... for each thread" requirement.
	RankTolerance float64
	// SpuriousFactor scales the significance bar for diagnoses that
	// appear only in the reconstruction; a reconstructed-only cell above
	// SpuriousFactor × significance fails the verdict.
	SpuriousFactor float64
}

// DefaultCompareOptions returns the guideline parameters used by the
// evaluation: 1.5% significance, 35% total tolerance, 0.8 pattern
// similarity, 2× spurious bar.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{
		SignificanceFrac: 0.015,
		TotalTolerance:   0.35,
		PatternThreshold: 0.80,
		RankTolerance:    0.50,
		SpuriousFactor:   2,
	}
}

// Verdict is the outcome of a retention comparison.
type Verdict struct {
	// Retained reports whether an analyst reading the reconstructed
	// diagnosis would reach the same conclusions as from the full one.
	Retained bool
	// Issues lists every guideline violation found (empty when retained).
	Issues []string
}

func (v Verdict) String() string {
	if v.Retained {
		return "retained"
	}
	return "lost: " + strings.Join(v.Issues, "; ")
}

// significance returns the severity bar for d under opts.
func significance(d *expert.Diagnosis, opts CompareOptions) float64 {
	return opts.SignificanceFrac * d.WallTime * float64(d.NumRanks)
}

// patternSimilarity measures how well the shape of the reconstructed
// per-rank severity vector matches the full one: the cosine similarity of
// the two vectors. It is 1 for identical shapes, ~0 for unrelated ones,
// and negative when the disparity inverts (the failure the paper calls
// "losing the expected disparity").
func patternSimilarity(full, approx []float64) float64 {
	var dot, nf, na float64
	for i := range full {
		dot += float64(full[i] * approx[i])
		nf += float64(full[i] * full[i])
		na += float64(approx[i] * approx[i])
	}
	if nf == 0 || na == 0 {
		// One vector is all-zero: identical iff both are.
		if nf == na {
			return 1
		}
		return 0
	}
	return dot / math.Sqrt(nf*na)
}

// Compare applies the retention-of-performance-trends guidelines
// (paper §4.3.4): every significant diagnosis of the full trace must
// appear in the reconstruction with the same sign, a comparable total,
// and the same cross-rank disparity pattern; and the reconstruction must
// not invent significant diagnoses of its own.
func Compare(full, approx *expert.Diagnosis, opts CompareOptions) Verdict {
	var issues []string
	sig := significance(full, opts)
	if sig <= 0 {
		sig = 1
	}
	for _, k := range full.Keys() {
		if k.Metric == expert.MetricExecution {
			// Execution time carries trends only through its cross-rank
			// disparity (the paper's do_work columns): compare the
			// mean-centered severity vectors.
			if issue := compareDisparity(k, full.Sev[k], approx.Sev[k], sig, opts); issue != "" {
				issues = append(issues, issue)
			}
			continue
		}
		fTotal := full.Total(k)
		if math.Abs(fTotal) < sig {
			continue
		}
		aVec, ok := approx.Sev[k]
		if !ok {
			issues = append(issues, fmt.Sprintf("%s: diagnosis missing", k))
			continue
		}
		aTotal := approx.Total(k)
		if fTotal*aTotal < 0 {
			issues = append(issues, fmt.Sprintf("%s: severity sign flipped (%.0f vs %.0f)", k, fTotal, aTotal))
			continue
		}
		if rel := math.Abs(aTotal-fTotal) / math.Abs(fTotal); rel > opts.TotalTolerance {
			issues = append(issues, fmt.Sprintf("%s: total severity off by %.0f%% (%.0f vs %.0f)",
				k, 100*rel, fTotal, aTotal))
		}
		if ps := patternSimilarity(full.Sev[k], aVec); ps < opts.PatternThreshold {
			issues = append(issues, fmt.Sprintf("%s: rank disparity not preserved (similarity %.2f)", k, ps))
		}
		if opts.RankTolerance > 0 {
			fVec := full.Sev[k]
			var maxF, worst float64
			worstRank := -1
			for r := range fVec {
				if af := math.Abs(fVec[r]); af > maxF {
					maxF = af
				}
				if d := math.Abs(aVec[r] - fVec[r]); d > worst {
					worst, worstRank = d, r
				}
			}
			if maxF > 0 && worst > opts.RankTolerance*maxF {
				issues = append(issues, fmt.Sprintf("%s: rank %d severity off by %.0f (%.0f%% of cell max)",
					k, worstRank, worst, 100*worst/maxF))
			}
		}
	}
	// Spurious diagnoses: significant in the reconstruction, absent or
	// insignificant in the full trace.
	for _, k := range approx.Keys() {
		if k.Metric == expert.MetricExecution {
			continue
		}
		aTotal := approx.Total(k)
		if math.Abs(aTotal) < opts.SpuriousFactor*sig {
			continue
		}
		if math.Abs(full.Total(k)) < sig {
			issues = append(issues, fmt.Sprintf("%s: spurious diagnosis (total %.0f)", k, aTotal))
		}
	}
	return Verdict{Retained: len(issues) == 0, Issues: issues}
}

// centered returns v minus its mean.
func centered(v []float64) []float64 {
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x - mean
	}
	return out
}

// compareDisparity judges an execution-time cell: the reconstructed
// trace must preserve the cross-rank disparity (who does more work), the
// signal an analyst reads from the paper's do_work columns. Totals are
// not judged — reconstruction preserves event counts, so totals only
// drift through clipping.
func compareDisparity(k expert.Key, fVec, aVec []float64, sig float64, opts CompareOptions) string {
	if len(fVec) == 0 || len(aVec) != len(fVec) {
		return ""
	}
	fC := centered(fVec)
	var spread float64
	for _, x := range fC {
		spread += math.Abs(x)
	}
	if spread < sig {
		return "" // no disparity worth preserving
	}
	aC := centered(aVec)
	if ps := patternSimilarity(fC, aC); ps < opts.PatternThreshold {
		return fmt.Sprintf("%s: work disparity not preserved (similarity %.2f)", k, ps)
	}
	return ""
}

// severity glyphs from zero to max; negative severities render as '-',
// matching the paper's "white squares indicate negative severities". The
// ramp deliberately avoids '-' so negatives are unambiguous.
const glyphs = " .:;=+*#%@"

// glyph maps a severity to a chart character given the chart's scale.
// Values within half a glyph step of zero render blank (the paper's gray
// "0 or close to 0"); anything more negative renders '-' (its white
// squares).
func glyph(sev, scale float64) byte {
	if scale <= 0 {
		return glyphs[0]
	}
	step := scale / float64(2*(len(glyphs)-1))
	if sev > -step && sev < step {
		return glyphs[0]
	}
	if sev < 0 {
		return '-'
	}
	i := int(sev / scale * float64(len(glyphs)-1))
	if i >= len(glyphs) {
		i = len(glyphs) - 1
	}
	return glyphs[i]
}

// Chart renders one diagnosis row per (metric, location) cell whose
// |total| exceeds minFrac of the chart scale: the metric abbreviation,
// the location, and one glyph per rank — the textual analogue of the
// paper's Figure 4 representation. Rows are scaled to the diagnosis's
// maximum absolute severity.
func Chart(d *expert.Diagnosis, minFrac float64) string {
	scale := d.MaxAbs()
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s ranks 0..%d (scale %.0fus)\n", d.Name, d.NumRanks-1, scale)
	for _, k := range d.Keys() {
		if k.Metric == expert.MetricExecution {
			continue
		}
		total := math.Abs(d.Total(k))
		if scale > 0 && total < minFrac*scale {
			continue
		}
		fmt.Fprintf(&b, "  %-2s %-20s |", expert.Abbrev(k.Metric), k.Location)
		for _, sev := range d.Sev[k] {
			b.WriteByte(glyph(sev, scale))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// SideBySide renders the same chart rows for several diagnoses (the full
// trace first, then one per method), keyed by the union of their
// significant cells — the layout of the paper's Figures 7 and 8.
func SideBySide(labels []string, diags []*expert.Diagnosis, keys []expert.Key) string {
	if len(labels) != len(diags) {
		panic("cube: SideBySide labels/diags length mismatch")
	}
	var scale float64
	for _, d := range diags {
		if d == nil {
			continue
		}
		if m := d.MaxAbs(); m > scale {
			scale = m
		}
	}
	var b strings.Builder
	for i, d := range diags {
		fmt.Fprintf(&b, "%-12s", labels[i])
		if d == nil {
			b.WriteString(" (failed)\n")
			continue
		}
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s@%s |", expert.Abbrev(k.Metric), k.Location)
			for _, sev := range d.Sev[k] {
				b.WriteByte(glyph(sev, scale))
			}
			b.WriteString("|")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SignificantKeys returns d's non-execution cells with |total| >= frac of
// aggregate wall time, in deterministic order — the cells an analyst
// would look at first.
func SignificantKeys(d *expert.Diagnosis, frac float64) []expert.Key {
	bar := frac * d.WallTime * float64(d.NumRanks)
	var out []expert.Key
	for _, k := range d.Keys() {
		if k.Metric == expert.MetricExecution {
			continue
		}
		if math.Abs(d.Total(k)) >= bar {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(d.Total(out[i])) > math.Abs(d.Total(out[j]))
	})
	return out
}
