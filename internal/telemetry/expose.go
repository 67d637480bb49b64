package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text
// exposition format produced by WritePrometheus.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per
// family, then one sample line per child — cumulative `_bucket{le=}`
// lines plus `_sum`/`_count` for histograms.  Output is deterministic:
// families appear in registration order, children in sorted label
// order, so the format can be golden-tested.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		if f.fn != nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn())); err != nil {
				return err
			}
			continue
		}
		for _, key := range f.sortedChildren() {
			f.mu.Lock()
			m := f.children[key]
			f.mu.Unlock()
			lbls := labelString(f.labels, key)
			var err error
			switch v := m.(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, lbls, v.Value())
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, lbls, v.Value())
			case *Histogram:
				err = writeHistogram(w, f.name, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram emits the cumulative bucket series plus sum/count.
// Histograms are unlabelled, so `le` is each bucket's only label.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	counts := h.BucketCounts()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

// labelString renders {k="v",...} for the given label names and
// encoded value key, or "" for an unlabelled metric.
func labelString(labels []string, key string) string {
	if len(labels) == 0 {
		return ""
	}
	values := strings.Split(key, labelSep)
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
