package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// figureWorkloads are the workloads plotted in Figures 4 and 5.
var figureWorkloads = []string{"apache", "firefox", "memcached"}

// Figure4Series is one workload's trampoline rank/frequency curve
// (Figure 4: log count vs. log rank).
type Figure4Series struct {
	Workload string
	Counts   []uint64 // call counts, descending (index = rank)
}

// Figure4 reproduces Figure 4's frequency-of-trampolines series.
func (s *Suite) Figure4() ([]Figure4Series, error) {
	out := make([]Figure4Series, 0, len(figureWorkloads))
	for _, name := range figureWorkloads {
		rd, err := s.run(name)
		if err != nil {
			return nil, err
		}
		counts := append([]uint64(nil), rd.baseTramps.Counts...)
		out = append(out, Figure4Series{Workload: name, Counts: counts})
	}
	return out, nil
}

// FormatFigure4 renders the series at sampled ranks.
func FormatFigure4(series []Figure4Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4. Frequency of trampolines (call count at rank; log-log shape)\n")
	fmt.Fprintf(&b, "%-12s", "Rank")
	for _, s := range series {
		fmt.Fprintf(&b, " %12s", s.Workload)
	}
	b.WriteString("\n")
	ranks := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000}
	for _, r := range ranks {
		fmt.Fprintf(&b, "%-12d", r)
		for _, s := range series {
			if r <= len(s.Counts) {
				fmt.Fprintf(&b, " %12d", s.Counts[r-1])
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure5Sizes are the ABTB entry counts swept in Figure 5.
var Figure5Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Figure5Series is one workload's trampoline-skip curve.
type Figure5Series struct {
	Workload string
	Sizes    []int
	SkipPct  []float64 // percent of trampoline calls skipped at each size
}

// Figure5 reproduces Figure 5: the percentage of library-call
// trampolines skipped as a function of ABTB size, computed
// analytically from the LRU stack-distance histogram of the
// trampoline stream (equivalent to replaying an LRU table of each
// size; the equivalence is property-tested in the trace package).
func (s *Suite) Figure5() ([]Figure5Series, error) {
	out := make([]Figure5Series, 0, len(figureWorkloads))
	for _, name := range figureWorkloads {
		rd, err := s.run(name)
		if err != nil {
			return nil, err
		}
		curve := rd.baseTramps.SkipCurve(Figure5Sizes)
		pct := make([]float64, len(curve))
		for i, c := range curve {
			pct[i] = c * 100
		}
		out = append(out, Figure5Series{Workload: name, Sizes: Figure5Sizes, SkipPct: pct})
	}
	return out, nil
}

// FormatFigure5 renders the skip curves.
func FormatFigure5(series []Figure5Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5. %% of library function call trampolines skipped vs ABTB entries\n")
	fmt.Fprintf(&b, "%-10s", "Entries")
	for _, s := range series {
		fmt.Fprintf(&b, " %12s", s.Workload)
	}
	b.WriteString("\n")
	for i, n := range Figure5Sizes {
		fmt.Fprintf(&b, "%-10d", n)
		for _, s := range series {
			fmt.Fprintf(&b, " %11.1f%%", s.SkipPct[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CDFPair is a request class's Base and Enhanced latency CDFs.
type CDFPair struct {
	Class      string
	Base       []stats.CDFPoint // latency µs vs fraction served
	Enhanced   []stats.CDFPoint
	BaseMeanUS float64
	EnhMeanUS  float64
}

// cdfPairs assembles per-class CDF pairs for a workload, trimming the
// measurement-perturbation outliers as the paper does (§4.4).
func (s *Suite) cdfPairs(workloadName string, points int) ([]CDFPair, error) {
	rd, err := s.run(workloadName)
	if err != nil {
		return nil, err
	}
	w := s.pooledWorkload(workloadName, rd.spec.Gen)
	out := make([]CDFPair, 0, len(w.Classes))
	for _, c := range w.Classes {
		bs := rd.baseSamp[c.Name].TrimOutliers(99.9)
		es := rd.enhSamp[c.Name].TrimOutliers(99.9)
		out = append(out, CDFPair{
			Class:      c.Name,
			Base:       bs.CDF(points),
			Enhanced:   es.CDF(points),
			BaseMeanUS: bs.Mean(),
			EnhMeanUS:  es.Mean(),
		})
	}
	return out, nil
}

// Figure6 reproduces Figure 6: the CDF of Apache requests served
// within a given response time, per SPECweb request type.
func (s *Suite) Figure6() ([]CDFPair, error) { return s.cdfPairs("apache", 20) }

// Figure8 reproduces Figure 8: the CDF of MySQL requests served
// within a given response time, for New Order and Payment.
func (s *Suite) Figure8() ([]CDFPair, error) { return s.cdfPairs("mysql", 20) }

// FormatCDFPairs renders CDF pairs compactly: selected percentiles
// per class plus the mean improvement.
func FormatCDFPairs(title string, pairs []CDFPair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, p := range pairs {
		fmt.Fprintf(&b, "  %s: mean %0.2fus -> %0.2fus (%+0.2f%%)\n",
			p.Class, p.BaseMeanUS, p.EnhMeanUS,
			(p.EnhMeanUS-p.BaseMeanUS)/p.BaseMeanUS*100)
		fmt.Fprintf(&b, "    %-10s %14s %14s\n", "served", "base (us)", "enhanced (us)")
		for _, frac := range []float64{0.50, 0.90, 0.99} {
			bv := valueAtFraction(p.Base, frac)
			ev := valueAtFraction(p.Enhanced, frac)
			fmt.Fprintf(&b, "    %9.0f%% %14.2f %14.2f\n", frac*100, bv, ev)
		}
	}
	return b.String()
}

// valueAtFraction returns the latency at which the CDF first reaches
// the fraction.
func valueAtFraction(cdf []stats.CDFPoint, frac float64) float64 {
	for _, p := range cdf {
		if p.Fraction >= frac {
			return p.Value
		}
	}
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1].Value
}

// Figure7Histogram is one Memcached request type's processing-time
// histogram pair (Figure 7).
type Figure7Histogram struct {
	Class         string
	BucketCenters []float64 // µs
	BaseFraction  []float64
	EnhFraction   []float64
	BasePeakUS    float64
	EnhPeakUS     float64
}

// Figure7 reproduces Figure 7: histograms of Memcached GET and SET
// request processing times, base vs enhanced.  The paper plots the
// buckets within the dominant peak; we histogram the 1st-95th
// percentile span of the merged distributions.
func (s *Suite) Figure7() ([]Figure7Histogram, error) {
	rd, err := s.run("memcached")
	if err != nil {
		return nil, err
	}
	out := make([]Figure7Histogram, 0, 2)
	for _, class := range []string{"GET", "SET"} {
		bs, es := rd.baseSamp[class], rd.enhSamp[class]
		merged := &stats.Sample{}
		merged.AddAll(bs.Values())
		merged.AddAll(es.Values())
		lo, hi := merged.Percentile(1), merged.Percentile(95)
		if hi <= lo {
			hi = lo + 1
		}
		const buckets = 30
		bh := stats.NewHistogram(lo, hi, buckets)
		eh := stats.NewHistogram(lo, hi, buckets)
		for _, v := range bs.Values() {
			bh.Add(v)
		}
		for _, v := range es.Values() {
			eh.Add(v)
		}
		h := Figure7Histogram{Class: class}
		for i := 0; i < buckets; i++ {
			h.BucketCenters = append(h.BucketCenters, bh.BucketCenter(i))
			h.BaseFraction = append(h.BaseFraction, bh.Fraction(i))
			h.EnhFraction = append(h.EnhFraction, eh.Fraction(i))
		}
		h.BasePeakUS = bh.BucketCenter(bh.PeakBucket())
		h.EnhPeakUS = eh.BucketCenter(eh.PeakBucket())
		out = append(out, h)
	}
	return out, nil
}

// FormatFigure7 renders the histogram pair summary.
func FormatFigure7(hists []Figure7Histogram) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7. Memcached request processing time histograms\n")
	for _, h := range hists {
		fmt.Fprintf(&b, "  %s: peak %0.2fus (base) -> %0.2fus (enhanced)\n",
			h.Class, h.BasePeakUS, h.EnhPeakUS)
		fmt.Fprintf(&b, "    %-12s %10s %10s\n", "bucket (us)", "base", "enhanced")
		for i := range h.BucketCenters {
			if h.BaseFraction[i] == 0 && h.EnhFraction[i] == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-12.2f %9.1f%% %9.1f%%\n",
				h.BucketCenters[i], h.BaseFraction[i]*100, h.EnhFraction[i]*100)
		}
	}
	return b.String()
}
