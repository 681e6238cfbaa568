package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// quickEnv is the -quick configuration the tests run every workload at.
func quickEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 7, sizes: quickSizes, quick: true, tmp: t.TempDir()}
}

// TestDeclaredNamesAreEmitted runs every workload at -quick size, untraced
// and traced, and requires the names it emits to be exactly the names
// BENCHMARK.json declares, each well formed, and every span tree's self
// times to add up to its root.
func TestDeclaredNamesAreEmitted(t *testing.T) {
	decl, err := loadDeclared()
	if err != nil {
		t.Fatal(err)
	}
	if err := decl.checkWorkloads(); err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	e := quickEnv(t)
	out := t.TempDir()
	for _, d := range decl.Workloads {
		w, _ := findWorkload(d.Name)
		if !wellFormed.MatchString(d.Name) {
			t.Errorf("workload name %q is not well formed", d.Name)
		}
		untraced, err := measureE2E(w, e, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := measureLayers(w, e, 0.05, out)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*measurement{untraced, traced} {
			if m.Failed != 0 {
				t.Errorf("%s: %d of %d output checks failed: %s", d.Name, m.Failed, m.Attempted, m.Failure)
			}
			// The same check every run of the program makes.
			if err := decl.checkEmitted(m); err != nil {
				t.Error(err)
			}
			for name := range m.result().Metrics {
				if !wellFormed.MatchString(name) {
					t.Errorf("metric name %q is not well formed", name)
				}
			}
		}
		checkSelfTimes(t, filepath.Join(out, "trace-"+d.Name+".json"))
	}
}

// checkSelfTimes requires, for every root span of a trace file, the self
// times of its tree to sum to within 5% of the root's duration.
func checkSelfTimes(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 || !tf.Quick {
		t.Fatalf("%s: %d spans, quick=%v", path, len(tf.Spans), tf.Quick)
	}
	self := selfTimes(tf.Spans)
	rootOf := make(map[int]int, len(tf.Spans))
	sum := map[int]int64{}
	for _, s := range tf.Spans { // parents precede children: IDs are assigned at start
		root := s.ID
		if s.Parent != 0 {
			root = rootOf[s.Parent]
		}
		rootOf[s.ID] = root
		sum[root] += self[s.ID]
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
	}
	for _, s := range tf.Spans {
		if s.Parent != 0 {
			continue
		}
		dur := s.EndNs - s.StartNs
		if diff := sum[s.ID] - dur; diff > dur/20 || diff < -dur/20 {
			t.Errorf("%s: root %d (%s, trace %s) lasts %d ns, its tree's self times sum to %d", path, s.ID, s.Name, s.Trace, dur, sum[s.ID])
		}
	}
}

// TestWrongPredictionFailsVerification: a prediction that differs from the
// direct classifier's must be counted as a failed check.
func TestWrongPredictionFailsVerification(t *testing.T) {
	r := &recorder{}
	inst, err := setupEdgeEval(quickEnv(t), r)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("clean set-up failed %d checks: %s", r.failed, r.firstFailure)
	}
	w := inst.(*edgeEval)
	w.want[3] = (w.want[3] + 1) % 10
	if err := w.pass(r, 0); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("one wrong expected prediction failed %d checks, want 1", r.failed)
	}
}

// corruptChunk flips a byte in the first chunk it carries.
type corruptChunk struct {
	base http.RoundTripper
	done bool
}

func (c *corruptChunk) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && !c.done {
		c.done = true
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		body[2] ^= 0xff // inside the MLXB magic: the collector must refuse it
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return c.base.RoundTrip(req)
}

// TestCorruptedChunkFailsVerification: a chunk the collector does not
// acknowledge with a first-attempt 200 must fail the pass and be counted.
func TestCorruptedChunkFailsVerification(t *testing.T) {
	r := &recorder{}
	inst, err := setupCollectorIngest(quickEnv(t), r)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if r.failed != 0 {
		t.Fatalf("clean set-up failed %d checks: %s", r.failed, r.firstFailure)
	}
	w := inst.(*collectorIngest)
	w.tt.base = &corruptChunk{base: w.tt.base}
	start := time.Now()
	err = w.pass(r, 0)
	if err == nil || r.failed == 0 {
		t.Errorf("a corrupted chunk gave err=%v and %d failed checks; want an error and a failed check", err, r.failed)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("the refused chunk took %v to fail: a 4xx must not be retried", took)
	}
}
