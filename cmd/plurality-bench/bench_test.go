package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"plurality"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n     int
		value float64
		label string
	}{
		{1000, 990, "p99"},
		{400, 390, "p97.5"},
		{20, 10, "p50"},
		{19, 19, "max"},
		{1, 1, "max"},
	} {
		v, label := tail(seq(c.n))
		if v != c.value || label != c.label {
			t.Errorf("tail of 1..%d = %g (%s), want %g (%s)", c.n, v, label, c.value, c.label)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(2), 0.75, 2.25},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("median of 1..10 = %g, want 5.5", m)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{Trace: 1, ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
		{Trace: 1, ID: 5, Parent: 1, Name: "b", Start: 90, End: 95},
		{Trace: 2, ID: 6, Name: "open", Start: 0, End: -1},
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	for name, want := range map[string][3]int64{ // calls, total, self
		"root": {1, 100, 45}, // 100 minus the union [10,60) ∪ [90,95)
		"a":    {1, 30, 25},
		"b":    {2, 35, 35},
		"c":    {1, 5, 5},
	} {
		s := got[name]
		if int64(s.Count) != want[0] || int64(s.Total) != want[1] || int64(s.Self) != want[2] {
			t.Errorf("%s: calls %d total %d self %d, want %v", name, s.Count, s.Total, s.Self, want)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unfinished span was aggregated")
	}
}

func TestTracerRecordsTraces(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "op")
	child := tr.begin(root, "layer")
	tr.end(child)
	tr.end(root)
	other := tr.begin(0, "op")
	tr.end(other)
	if len(tr.spans) != 3 || tr.spans[1].Trace != tr.spans[0].Trace || tr.spans[2].Trace == tr.spans[0].Trace {
		t.Fatalf("spans %+v: want a two-span trace and a separate one", tr.spans)
	}
	var off *tracer
	if id := off.begin(0, "op"); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	off.end(0)
}

func TestArrivalScheduleIsDeterministicPerSeed(t *testing.T) {
	a, b, c := arrivals(7, 50, 2000), arrivals(7, 50, 2000), arrivals(8, 50, 2000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if !slices.IsSorted(a) {
		t.Fatal("arrival times decrease")
	}
	if mean := a[len(a)-1].Seconds() / float64(len(a)); mean < 0.018 || mean > 0.022 {
		t.Errorf("mean gap %.4f s at 50/s, want about 0.02", mean)
	}

	s := &served{pool: make([]request, 4)}
	for i := range s.pool {
		s.pool[i], _ = newRequest(missSpec(smoke, i%2, uint64(i)))
		s.pool[i].hit = true
	}
	e := env{sc: smoke, seed: 3}
	p1, err := s.plan(e, 0, 20, 500)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := s.plan(e, 0, 20, 500)
	hits := 0
	for i := range p1 {
		if !bytes.Equal(p1[i].body, p2[i].body) || p1[i].at != p2[i].at {
			t.Fatalf("request %d differs between two plans of the same seed", i)
		}
		if p1[i].hit {
			hits++
		}
	}
	if hits != 400 {
		t.Errorf("%d of 500 requests repeat a pool spec, want 400", hits)
	}
}

func TestCompareVerdicts(t *testing.T) {
	a := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"faster", scaled(0.8), true, improved},
		{"slower", scaled(1.3), true, regressed},
		{"more throughput", scaled(1.3), false, improved},
		{"less throughput", scaled(0.8), false, regressed},
		{"equal", scaled(1), true, same},
		{"within the bound", scaled(1.05), true, same},
		{"noisy", noisy, true, unresolved},
	} {
		if got := verdict(a, c.b, c.lower, 0.1, 0); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Set-ups of 20 ms against 30 ms differ by half, but by less than the
	// absolute floor.
	fast := []float64{0.020, 0.021, 0.019, 0.020, 0.022}
	slow := []float64{0.030, 0.031, 0.029, 0.030, 0.032}
	if got := verdict(fast, slow, true, 0.1, setupFloor); got != same {
		t.Errorf("setup 20 ms -> 30 ms under a %g s floor: verdict %s, want %s", setupFloor, got, same)
	}
	if got := verdict(fast, slow, true, 0.1, 0); got != regressed {
		t.Errorf("setup 20 ms -> 30 ms with no floor: verdict %s, want %s", got, regressed)
	}
}

func TestCheckResultRules(t *testing.T) {
	window := plurality.Spec{N: 10, MaxTime: 4}
	full := plurality.Spec{N: 10}
	for _, c := range []struct {
		spec plurality.Spec
		res  plurality.Result
		ok   bool
	}{
		{window, plurality.Result{FinalCounts: []int{6, 4}, TimedOut: true, Duration: 4, PluralityWon: true}, true},
		{window, plurality.Result{FinalCounts: []int{6, 4}, TimedOut: true, Duration: 3, PluralityWon: true}, false},
		{window, plurality.Result{FinalCounts: []int{4, 6}, TimedOut: true, Duration: 4, Winner: 1}, false},
		{full, plurality.Result{FinalCounts: []int{10, 0}, PluralityWon: true, FullConsensus: true}, true},
		{full, plurality.Result{FinalCounts: []int{9, 0}, PluralityWon: true, FullConsensus: true}, false},
		{full, plurality.Result{FinalCounts: []int{6, 4}, PluralityWon: true, TimedOut: true}, false},
	} {
		if err := checkResult(c.spec, &c.res); (err == nil) != c.ok {
			t.Errorf("checkResult(%+v, %+v) = %v, want ok=%v", c.spec, c.res, err, c.ok)
		}
	}
}

// run invokes the benchmark in-process and returns its exit code, its
// standard output and the decoded last line.
func run(t *testing.T, args ...string) (int, string, lastLine) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := benchMain(context.Background(), args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v\nstderr: %s", lines[len(lines)-1], err, errOut.String())
	}
	return code, out.String(), last
}

// TestSmoke runs every workload at toy sizes, untraced and traced, and
// checks the outputs: every declared metric is reported, nothing fails, two
// sets of the same seed produce the same digests, and compare finds a
// report equal to itself.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	report := filepath.Join(dir, "a.json")
	code, out, last := run(t, "-smoke", "-seconds", "0.2", "-sets", "2", "-out", report)
	if code != 0 || !last.Correct || last.Failed != 0 {
		t.Fatalf("untraced smoke exited %d:\n%s", code, out)
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			if v, ok := last.Metrics[w.name+"/"+m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
				t.Errorf("%s/%s = %+v, want a positive value in %s", w.name, m.name, v, m.unit)
			}
		}
	}
	var fr fileReport
	if err := readJSON(report, &fr); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if d0, d1 := fr.Sets[0][w.name].Digest, fr.Sets[1][w.name].Digest; d0 == "" || d0 != d1 {
			t.Errorf("%s: result digests of two sets differ: %q, %q", w.name, d0, d1)
		}
	}
	var cmpOut, cmpErr bytes.Buffer
	if code := compareMain([]string{"-benchmark", "../../BENCHMARK.json", report, report}, &cmpOut, &cmpErr); code != 0 ||
		strings.Contains(cmpOut.String(), regressed) || strings.Contains(cmpOut.String(), improved) {
		t.Errorf("compare of a report with itself exited %d:\n%s%s", code, cmpOut.String(), cmpErr.String())
	}

	spans := filepath.Join(dir, "spans.json")
	code, out, last = run(t, "-smoke", "-seconds", "0.2", "-trace", "1", "-spans", spans)
	if code != 0 || !last.Correct {
		t.Fatalf("traced smoke exited %d:\n%s", code, out)
	}
	for _, m := range perLayer {
		if v, ok := last.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("per-layer metric %s = %+v, want one in %s", m.name, v, m.unit)
		}
	}
	var sp struct{ Spans []span }
	if err := readJSON(spans, &sp); err != nil || len(sp.Spans) == 0 {
		t.Errorf("span file: %v, %d spans", err, len(sp.Spans))
	}
	if !strings.Contains(out, "self_s") {
		t.Error("traced run printed no self times")
	}
}

// TestBenchmarkDeclaration checks BENCHMARK.json against the program: the
// same workloads and metrics with the same units and directions, and
// bounds within the benchmark's rules.
func TestBenchmarkDeclaration(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workloads %v, want %s at %d", names, w.name, i)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics declared, program has %d and %d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range decl.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if decl.EndToEnd[0].Name != "setup_s" || decl.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	for i, m := range decl.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}
