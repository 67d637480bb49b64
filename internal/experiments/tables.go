package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Table2Row is one row of Table 2: trampoline instructions per kilo
// instruction under the base system.
type Table2Row struct {
	Workload string
	PKI      float64
	PaperPKI float64
}

// paperTable2 records the paper's published values for side-by-side
// reporting.
var paperTable2 = map[string]float64{
	"apache": 12.23, "firefox": 0.72, "memcached": 1.75, "mysql": 5.56,
}

// Table2 reproduces Table 2.
func (s *Suite) Table2() ([]Table2Row, error) {
	rds, err := s.all()
	if err != nil {
		return nil, err
	}
	out := make([]Table2Row, 0, len(rds))
	for _, rd := range rds {
		out = append(out, Table2Row{
			Workload: rd.spec.Name,
			PKI:      core.PKIOf(rd.baseCnt).TrampInstrs,
			PaperPKI: paperTable2[rd.spec.Name],
		})
	}
	return out, nil
}

// FormatTable2 renders Table 2 rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Instructions in trampoline per kilo instruction\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "Workload", "Measured", "Paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12.2f %12.2f\n", r.Workload, r.PKI, r.PaperPKI)
	}
	return b.String()
}

// Table3Row is one row of Table 3: distinct trampolines used.
type Table3Row struct {
	Workload      string
	Distinct      int
	PaperDistinct int
}

var paperTable3 = map[string]int{
	"apache": 501, "firefox": 2457, "memcached": 33, "mysql": 1611,
}

// Table3 reproduces Table 3.
func (s *Suite) Table3() ([]Table3Row, error) {
	rds, err := s.all()
	if err != nil {
		return nil, err
	}
	out := make([]Table3Row, 0, len(rds))
	for _, rd := range rds {
		out = append(out, Table3Row{
			Workload:      rd.spec.Name,
			Distinct:      rd.baseTramps.Distinct,
			PaperDistinct: paperTable3[rd.spec.Name],
		})
	}
	return out, nil
}

// FormatTable3 renders Table 3 rows.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Number of trampolines used by program execution\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "Workload", "Measured", "Paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12d %12d\n", r.Workload, r.Distinct, r.PaperDistinct)
	}
	return b.String()
}

// Table4Row is one workload's Base/Enhanced counter pair (Table 4),
// all values per kilo-instruction.
type Table4Row struct {
	Workload string
	Base     core.PKI
	Enhanced core.PKI
}

// Table4 reproduces Table 4: performance counters per kilo
// instruction, base vs. enhanced.
func (s *Suite) Table4() ([]Table4Row, error) {
	rds, err := s.all()
	if err != nil {
		return nil, err
	}
	out := make([]Table4Row, 0, len(rds))
	for _, rd := range rds {
		out = append(out, Table4Row{
			Workload: rd.spec.Name,
			Base:     core.PKIOf(rd.baseCnt),
			Enhanced: core.PKIOf(rd.enhCnt),
		})
	}
	return out, nil
}

// FormatTable4 renders Table 4 in the paper's counter × workload
// layout.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Performance counters (values are per kilo instruction)\n")
	fmt.Fprintf(&b, "%-22s", "Performance Counter")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s-Base %10s-Enh", r.Workload[:min(6, len(r.Workload))], r.Workload[:min(6, len(r.Workload))])
	}
	b.WriteString("\n")
	counters := []struct {
		name string
		get  func(core.PKI) float64
	}{
		{"I-$ Misses", func(p core.PKI) float64 { return p.L1IMisses }},
		{"I-TLB Misses", func(p core.PKI) float64 { return p.ITLBMisses }},
		{"D-$ Misses", func(p core.PKI) float64 { return p.L1DMisses }},
		{"D-TLB Misses", func(p core.PKI) float64 { return p.DTLBMisses }},
		{"Branch Mispredictions", func(p core.PKI) float64 { return p.Mispredicts }},
	}
	for _, c := range counters {
		fmt.Fprintf(&b, "%-22s", c.name)
		for _, r := range rows {
			fmt.Fprintf(&b, " %15.2f %14.2f", c.get(r.Base), c.get(r.Enhanced))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table5Row is one Peacekeeper category score (Table 5, higher is
// better).  Scores are derived as work-per-second: the category's
// fixed work quantum divided by its mean request latency.
type Table5Row struct {
	Category   string
	Base       float64
	Enhanced   float64
	ImprovePct float64
}

// Table5 reproduces Table 5: Firefox Peacekeeper scores.
func (s *Suite) Table5() ([]Table5Row, error) {
	rd, err := s.run("firefox")
	if err != nil {
		return nil, err
	}
	// Work quanta chosen so base scores land near the paper's
	// magnitudes (fps for rendering categories, ops for the rest).
	quantum := map[string]float64{
		"Rendering": 1.6e3, "Canvas": 1.2e3, "Data": 7e5,
		"DOM": 5.4e5, "TextParsing": 7e6,
	}
	out := make([]Table5Row, 0, len(quantum))
	for _, cat := range []string{"Rendering", "Canvas", "Data", "DOM", "TextParsing"} {
		bm := rd.baseSamp[cat].Mean()
		em := rd.enhSamp[cat].Mean()
		if bm == 0 || em == 0 {
			return nil, fmt.Errorf("experiments: firefox category %s unmeasured", cat)
		}
		base := quantum[cat] / bm
		enh := quantum[cat] / em
		out = append(out, Table5Row{
			Category:   cat,
			Base:       base,
			Enhanced:   enh,
			ImprovePct: (enh - base) / base * 100,
		})
	}
	return out, nil
}

// FormatTable5 renders Table 5 rows.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5. Firefox Peacekeeper scores (higher is better)\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %10s\n", "Workload", "Base", "Enhanced", "Delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.1f %12.1f %+9.2f%%\n", r.Category, r.Base, r.Enhanced, r.ImprovePct)
	}
	return b.String()
}

// Table6Row is one percentile row of Table 6: MySQL response times in
// milliseconds, lower is better.
type Table6Row struct {
	Percentile                float64
	NewOrderBase, NewOrderEnh float64
	PaymentBase, PaymentEnh   float64
}

// Table6 reproduces Table 6: response time of MySQL requests at the
// paper's percentiles.
func (s *Suite) Table6() ([]Table6Row, error) {
	rd, err := s.run("mysql")
	if err != nil {
		return nil, err
	}
	out := make([]Table6Row, 0, 4)
	for _, p := range []float64{50, 75, 90, 95} {
		out = append(out, Table6Row{
			Percentile:   p,
			NewOrderBase: rd.baseSamp["NewOrder"].Percentile(p) / 1000, // µs → ms
			NewOrderEnh:  rd.enhSamp["NewOrder"].Percentile(p) / 1000,
			PaymentBase:  rd.baseSamp["Payment"].Percentile(p) / 1000,
			PaymentEnh:   rd.enhSamp["Payment"].Percentile(p) / 1000,
		})
	}
	return out, nil
}

// FormatTable6 renders Table 6 rows.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6. Response Time of MySQL Requests in milliseconds (lower is better)\n")
	fmt.Fprintf(&b, "%-9s %14s %14s %14s %14s\n",
		"Requests", "NewOrder-Base", "NewOrder-Enh", "Payment-Base", "Payment-Enh")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7.0f%%  %14.3f %14.3f %14.3f %14.3f\n",
			r.Percentile, r.NewOrderBase, r.NewOrderEnh, r.PaymentBase, r.PaymentEnh)
	}
	return b.String()
}

// Speedup summarises the headline result: mean request latency
// improvement of Enhanced over Base per workload (the paper's "up to
// 4%" for Apache).
type Speedup struct {
	Workload   string
	BaseMeanUS float64
	EnhMeanUS  float64
	ImprovePct float64
}

// Speedups computes the per-workload mean latency improvement.
func (s *Suite) Speedups() ([]Speedup, error) {
	rds, err := s.all()
	if err != nil {
		return nil, err
	}
	out := make([]Speedup, 0, len(rds))
	for _, rd := range rds {
		bm := merged(rd.baseSamp).Mean()
		em := merged(rd.enhSamp).Mean()
		out = append(out, Speedup{
			Workload:   rd.spec.Name,
			BaseMeanUS: bm,
			EnhMeanUS:  em,
			ImprovePct: stats.PercentDelta(bm, em),
		})
	}
	return out, nil
}

// FormatSpeedups renders the speedup summary.
func FormatSpeedups(rows []Speedup) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline: mean request latency, Base vs Enhanced\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %10s\n", "Workload", "Base (us)", "Enhanced (us)", "Improve")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %14.2f %14.2f %+9.2f%%\n", r.Workload, r.BaseMeanUS, r.EnhMeanUS, r.ImprovePct)
	}
	return b.String()
}
