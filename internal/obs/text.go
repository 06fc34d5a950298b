package obs

// The Prometheus text exposition codec: WriteText writes the daemon's
// /metrics and ParseText reads it back, in one dialect.

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Family is one metric family: its name, HELP text, TYPE and samples.
type Family struct {
	Name string
	Help string // written verbatim: no backslash or newline
	Type string // "counter", "gauge" or "histogram"
	// Ints writes counter and gauge values as integers (%d) instead of
	// %g; histogram bucket counts and _count always are.
	Ints    bool
	Samples []Sample
}

// Sample is one series of a family: its labels plus a value, or a
// histogram in a histogram family.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   HistogramSnapshot
}

// Label is one name="value" pair of a sample.
type Label struct{ Name, Value string }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendKey writes a sample key, name{a="x",b="y"}, escaping each label
// value as the text format requires.
func appendKey(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	for i, l := range labels {
		b = append(append(b, "{,"[min(i, 1)]), l.Name...) // '{' opens, ',' separates
		b = append(append(append(b, `="`...), labelEscaper.Replace(l.Value)...), '"')
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return b
}

// WriteText writes fams in Prometheus text exposition format.
func WriteText(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Samples {
			if f.Type != "histogram" {
				var v any = s.Value // %v prints a float64 as %g
				if f.Ints {
					v = int64(s.Value)
				}
				b = fmt.Appendf(appendKey(b, f.Name, s.Labels), " %v\n", v)
				continue
			}
			h, cum := s.Hist, int64(0)
			for i, c := range h.Counts {
				le := "+Inf"
				if i < len(h.Bounds) {
					le = strconv.FormatFloat(h.Bounds[i], 'g', -1, 64)
				}
				cum += c
				b = appendKey(b, f.Name+"_bucket", append(s.Labels[:len(s.Labels):len(s.Labels)], Label{"le", le}))
				b = fmt.Appendf(b, " %d\n", cum)
			}
			b = fmt.Appendf(appendKey(b, f.Name+"_sum", s.Labels), " %g\n", h.Sum)
			b = fmt.Appendf(appendKey(b, f.Name+"_count", s.Labels), " %d\n", h.Count)
		}
	}
	_, err := w.Write(b)
	return err
}

// Values flattens fams into the value of each sample key as WriteText
// writes it: name{labels} for counters and gauges, and the _sum and
// _count keys of each histogram series.
func Values(fams []Family) map[string]float64 {
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if f.Type != "histogram" {
				out[string(appendKey(nil, f.Name, s.Labels))] = s.Value
				continue
			}
			out[string(appendKey(nil, f.Name+"_sum", s.Labels))] = s.Hist.Sum
			out[string(appendKey(nil, f.Name+"_count", s.Labels))] = float64(s.Hist.Count)
		}
	}
	return out
}

// ParseText reads an exposition in WriteText's dialect, strictly, and
// never panics. Every non-empty line is a HELP, a TYPE or a sample; a
// family is declared once, HELP then TYPE before its samples, with a
// known type; names are valid, label values well quoted, sample keys
// unique. A histogram series, folded into a HistogramSnapshot, is one
// label set's _bucket lines with ascending finite bounds and cumulative
// counts up to le="+Inf" (the last label), then _sum, then an equal _count.
func ParseText(body string) ([]Family, error) {
	var (
		fams []Family
		cur  *Family
		seen = map[string]bool{} // "# "+family names, and sample keys
		step int                 // cur's open histogram series: 0 none, 1 in buckets, 2 want _sum, 3 want _count
	)
	endFamily := func() error {
		if cur != nil && cur.Type == "" {
			return fmt.Errorf("obs: family %s has no TYPE", cur.Name)
		}
		if step != 0 {
			return fmt.Errorf("obs: histogram %s ends inside a series", cur.Name)
		}
		return nil
	}
	for n, line := range strings.Split(body, "\n") {
		fail := func(format string, a ...any) ([]Family, error) {
			return nil, fmt.Errorf("obs: exposition line %d: %s", n+1, fmt.Sprintf(format, a...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if !metricName.MatchString(name) || help == "" {
				return fail("malformed HELP %q", line)
			}
			if seen["# "+name] {
				return fail("family %s declared twice", name)
			}
			if err := endFamily(); err != nil {
				return nil, err
			}
			seen["# "+name] = true
			fams = append(fams, Family{Name: name, Help: help})
			cur = &fams[len(fams)-1]
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if cur == nil || name != cur.Name || cur.Type != "" {
				return fail("TYPE %q does not follow its family's HELP", line)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				return fail("unknown type %q for %s", typ, name)
			}
			cur.Type = typ
			continue
		}
		if line == "" {
			continue
		}
		if line[0] == '#' {
			return fail("unexpected comment %q", line)
		}
		name, labels, key, v, err := parseSample(line)
		switch {
		case err != nil:
			return fail("%v", err)
		case cur == nil || cur.Type == "" || !strings.HasPrefix(name, cur.Name) || cur.Type != "histogram" && name != cur.Name:
			return fail("sample %s is not in the family declared above it", key)
		case seen[key]:
			return fail("sample %s exposed twice", key)
		}
		seen[key] = true
		if cur.Type != "histogram" {
			cur.Samples = append(cur.Samples, Sample{Labels: labels, Value: v})
			continue
		}
		suffix, le := name[len(cur.Name):], ""
		if k := len(labels) - 1; suffix == "_bucket" && k >= 0 && labels[k].Name == "le" {
			labels, le = append([]Label(nil), labels[:k]...), labels[k].Value
		}
		if step == 0 {
			cur.Samples, step = append(cur.Samples, Sample{Labels: labels}), 1
		}
		ser := &cur.Samples[len(cur.Samples)-1]
		want := [...]string{"", "_bucket", "_sum", "_count"}[step]
		if suffix != want || suffix == "_bucket" && le == "" || !slices.Equal(labels, ser.Labels) {
			return fail("sample %s out of place: want %s%s%s", key, cur.Name, want, appendKey(nil, "", ser.Labels))
		}
		// Until _count closes the series, Counts stay cumulative and
		// Count holds the last bucket's.
		h, c := &ser.Hist, int64(v)
		switch {
		case step == 2:
			h.Sum, step = v, 3
		case float64(c) != v:
			return fail("sample %s: count %v is not an integer", key, v)
		case step == 3:
			if c != h.Count {
				return fail("sample %s: _count %d != +Inf bucket %d", key, c, h.Count)
			}
			for k := len(h.Counts) - 1; k > 0; k-- {
				h.Counts[k] -= h.Counts[k-1]
			}
			step = 0
		case c < h.Count:
			return fail("sample %s: bucket counts not cumulative", key)
		case le == "+Inf":
			h.Counts, h.Count, step = append(h.Counts, c), c, 2
		default:
			bound, err := strconv.ParseFloat(le, 64)
			k := len(h.Bounds)
			if err != nil || math.IsInf(bound, 0) || math.IsNaN(bound) || k > 0 && !(bound > h.Bounds[k-1]) {
				return fail("sample %s: bucket bounds must be finite and ascend", key)
			}
			h.Bounds, h.Counts, h.Count = append(h.Bounds, bound), append(h.Counts, c), c
		}
	}
	if err := endFamily(); err != nil {
		return nil, err
	}
	return fams, nil
}

// parseSample splits one sample line, name{labels} value, into its
// name, unescaped labels, raw key and value.
func parseSample(line string) (name string, labels []Label, key string, v float64, err error) {
	bad := func(what string) (string, []Label, string, float64, error) {
		return "", nil, "", 0, fmt.Errorf("%s in %q", what, line)
	}
	i := strings.IndexAny(line, "{ ")
	if i < 0 || !metricName.MatchString(line[:i]) {
		return bad("malformed sample")
	}
	name = line[:i]
	for sep := line[i]; sep == '{' || sep == ','; sep = line[i] {
		eq := strings.IndexByte(line[i:], '=') + i
		if eq <= i || eq+1 >= len(line) || line[eq+1] != '"' || !labelName.MatchString(line[i+1:eq]) {
			return bad("malformed label")
		}
		l := Label{Name: line[i+1 : eq]}
		var val []byte
		for i = eq + 2; i < len(line) && line[i] != '"'; i++ {
			c := line[i]
			if c == '\\' && i+1 < len(line) {
				if i++; line[i] == 'n' {
					c = '\n'
				} else if c = line[i]; c != '\\' && c != '"' {
					return bad("bad escape")
				}
			}
			val = append(val, c)
		}
		if i+1 >= len(line) || line[i+1] != ',' && line[i+1] != '}' {
			return bad("unterminated label value")
		}
		if slices.ContainsFunc(labels, func(o Label) bool { return o.Name == l.Name }) {
			return bad("repeated label " + l.Name)
		}
		l.Value = string(val)
		labels = append(labels, l)
		if i++; line[i] == '}' {
			i++
			break
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return bad("malformed sample")
	}
	if v, err = strconv.ParseFloat(line[i+1:], 64); err != nil {
		return bad("bad value")
	}
	return name, labels, line[:i], v, nil
}

// Valid metric and label names.
var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)
