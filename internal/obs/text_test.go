package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestWriteText pins the writer's bytes: %g for plain values, integers
// for Ints families and histogram counts, escaped label values, and
// cumulative buckets ending at le="+Inf" before _sum and _count. The
// parser reads the same families back.
func TestWriteText(t *testing.T) {
	fams := []Family{
		{Name: "a_total", Help: "Plain counter.", Type: "counter", Samples: []Sample{{Value: 1234567}}},
		{Name: "b", Help: "Labeled gauge.", Type: "gauge", Ints: true, Samples: []Sample{
			{Labels: []Label{{"w", `x"y\z` + "\n"}}, Value: 1234567},
			{Labels: []Label{{"w", "http://127.0.0.1:1"}, {"k", "v"}}, Value: 0},
		}},
		{Name: "c_seconds", Help: "Histogram.", Type: "histogram", Samples: []Sample{
			{Labels: []Label{{"class", "2xx"}}, Hist: HistogramSnapshot{Bounds: []float64{0.001, 2.5}, Counts: []int64{1, 0, 2}, Sum: 0.5, Count: 3}},
			{Hist: HistogramSnapshot{Counts: []int64{0}}},
		}},
	}
	want := `# HELP a_total Plain counter.
# TYPE a_total counter
a_total 1.234567e+06
# HELP b Labeled gauge.
# TYPE b gauge
b{w="x\"y\\z\n"} 1234567
b{w="http://127.0.0.1:1",k="v"} 0
# HELP c_seconds Histogram.
# TYPE c_seconds histogram
c_seconds_bucket{class="2xx",le="0.001"} 1
c_seconds_bucket{class="2xx",le="2.5"} 1
c_seconds_bucket{class="2xx",le="+Inf"} 3
c_seconds_sum{class="2xx"} 0.5
c_seconds_count{class="2xx"} 3
c_seconds_bucket{le="+Inf"} 0
c_seconds_sum 0
c_seconds_count 0
`
	var b strings.Builder
	if err := WriteText(&b, fams); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", b.String(), want)
	}
	got, err := ParseText(want)
	if err != nil {
		t.Fatal(err)
	}
	fams[1].Ints = false // the text does not say which form wrote a value
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", fams); g != w {
		t.Errorf("ParseText:\n%s\nwant:\n%s", g, w)
	}
	v := Values(got)
	if v[`b{w="http://127.0.0.1:1",k="v"}`] != 0 || v[`c_seconds_count{class="2xx"}`] != 3 || v["c_seconds_sum"] != 0 || len(v) != 7 {
		t.Errorf("Values: %v", v)
	}
}

// TestParseTextRejects holds one rejected exposition per rule ParseText
// enforces, each rejected by that rule.
func TestParseTextRejects(t *testing.T) {
	const (
		ctr  = "# HELP x Help.\n# TYPE x counter\n"
		hist = "# HELP h Help.\n# TYPE h histogram\n"
		tail = "h_sum 1\nh_count 2\n"
	)
	for _, c := range []struct{ name, body, want string }{
		{"unexpected comment", ctr + "# a comment\n", "unexpected comment"},
		{"line of no known shape", ctr + "x\n", "malformed sample"},
		{"HELP without text", "# HELP x\n# TYPE x counter\n", "malformed HELP"},
		{"HELP twice", ctr + "# HELP x Again.\n", "declared twice"},
		{"HELP after samples", ctr + "x 1\n# HELP x Again.\n", "declared twice"},
		{"TYPE twice", ctr + "# TYPE x counter\n", "does not follow"},
		{"TYPE before HELP", "# TYPE x counter\n# HELP x Help.\n", "does not follow"},
		{"TYPE after samples", "# HELP x Help.\nx 1\n# TYPE x counter\n", "not in the family declared above it"},
		{"family without TYPE", "# HELP x Help.\n", "has no TYPE"},
		{"unknown type", "# HELP x Help.\n# TYPE x summary\n", "unknown type"},
		{"sample before any family", "x 1\n" + ctr, "not in the family declared above it"},
		{"sample of another family", ctr + "y 1\n", "not in the family declared above it"},
		{"bad metric name in HELP", "# HELP 1x Help.\n# TYPE 1x counter\n", "malformed HELP"},
		{"bad metric name in sample", ctr + "x-y 1\n", "malformed sample"},
		{"bad label name", ctr + `x{1a="v"} 1` + "\n", "malformed label"},
		{"unquoted label value", ctr + `x{a=v} 1` + "\n", "malformed label"},
		{"unterminated label value", ctr + `x{a="v} 1` + "\n", "unterminated label value"},
		{"unknown escape", ctr + `x{a="\t"} 1` + "\n", "bad escape"},
		{"empty label set", ctr + "x{} 1\n", "malformed label"},
		{"trailing comma", ctr + `x{a="v",} 1` + "\n", "malformed label"},
		{"repeated label", ctr + `x{a="v",a="w"} 1` + "\n", "repeated"},
		{"non-numeric value", ctr + "x one\n", "bad value"},
		{"timestamp after value", ctr + "x 1 1700000000\n", "bad value"},
		{"duplicate sample key", ctr + "x 1\nx 2\n", "exposed twice"},
		{"duplicate labeled sample key", ctr + `x{a="v"} 1` + "\n" + `x{a="v"} 2` + "\n", "exposed twice"},
		{"bounds descend", hist + "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n" + tail, "must be finite and ascend"},
		{"bound repeated", hist + "h_bucket{le=\"1\"} 1\nh_bucket{le=\"1.0\"} 1\nh_bucket{le=\"+Inf\"} 2\n" + tail, "must be finite and ascend"},
		{"non-finite bound", hist + "h_bucket{le=\"Inf\"} 1\nh_bucket{le=\"+Inf\"} 2\n" + tail, "must be finite and ascend"},
		{"bad bound", hist + "h_bucket{le=\"one\"} 1\nh_bucket{le=\"+Inf\"} 2\n" + tail, "must be finite and ascend"},
		{"counts not cumulative", hist + "h_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\n" + tail, "not cumulative"},
		{"+Inf differs from _count", hist + "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\n" + tail, "!= +Inf bucket"},
		{"missing +Inf bucket", hist + "h_bucket{le=\"1\"} 2\n" + tail, "out of place"},
		{"bucket after +Inf", hist + "h_bucket{le=\"+Inf\"} 2\nh_bucket{le=\"3\"} 2\n" + tail, "out of place"},
		{"missing _sum", hist + "h_bucket{le=\"+Inf\"} 2\nh_count 2\n", "out of place"},
		{"missing _count", hist + "h_bucket{le=\"+Inf\"} 2\nh_sum 1\n", "ends inside a series"},
		{"fractional count", hist + "h_bucket{le=\"+Inf\"} 1.5\nh_sum 1\nh_count 1.5\n", "not an integer"},
		{"bucket without le", hist + "h_bucket 2\nh_bucket{le=\"+Inf\"} 2\n" + tail, "out of place"},
		{"le on _sum", hist + "h_bucket{le=\"+Inf\"} 2\nh_sum{le=\"1\"} 1\nh_count 2\n", "out of place"},
		{"unknown histogram suffix", hist + "h_total 1\n", "out of place"},
	} {
		fams, err := ParseText(c.body)
		if err == nil {
			t.Errorf("%s: accepted %q as %+v", c.name, c.body, fams)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected for another rule: %v", c.name, err)
		}
	}
}

// goldenBodies are the daemon's pinned /metrics bodies.
func goldenBodies(t testing.TB) []string {
	var out []string
	for _, name := range []string{"standalone", "coordinator"} {
		b, err := os.ReadFile(filepath.Join("..", "server", "testdata", "metrics_"+name+".prom"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// FuzzParseText: ParseText never panics, and whatever it accepts comes
// back unchanged through WriteText and ParseText.
func FuzzParseText(f *testing.F) {
	for _, body := range goldenBodies(f) {
		f.Add(body)
	}
	f.Add("# HELP h Help.\n# TYPE h histogram\nh_bucket{a=\"\\\"\\n\",le=\"-1e-09\"} 0\nh_bucket{a=\"\\\"\\n\",le=\"+Inf\"} 2\nh_sum{a=\"\\\"\\n\"} NaN\nh_count{a=\"\\\"\\n\"} 2\n")
	f.Fuzz(func(t *testing.T, body string) {
		fams, err := ParseText(body)
		if err != nil {
			return
		}
		var b strings.Builder
		if err := WriteText(&b, fams); err != nil {
			t.Fatal(err)
		}
		again, err := ParseText(b.String())
		if err != nil {
			t.Fatalf("rewritten body rejected: %v\n%s", err, b.String())
		}
		if reflect.DeepEqual(again, fams) {
			return
		}
		// DeepEqual fails on a NaN value; %#v spells NaN alike on both sides.
		if g, w := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", fams); g != w {
			t.Fatalf("round trip changed the families:\n%s\nwant:\n%s", g, w)
		}
	})
}

// TestSnapshotUnderLoadParses: a histogram snapshotted while other
// goroutines observe into it still writes an exposition ParseText
// accepts — its +Inf bucket always equals its _count.
func TestSnapshotUnderLoadParses(t *testing.T) {
	h := NewHistogram(DefaultDurationBuckets())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.003)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 500; i++ {
		var b strings.Builder
		if err := WriteText(&b, []Family{{Name: "h", Help: "H.", Type: "histogram", Samples: []Sample{{Hist: h.Snapshot()}}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(b.String()); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
}
