package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/ingest"
)

// TestRunOneFrame drives a one-frame end-to-end run through flag parsing,
// the parallel replay path and both streaming sinks, and checks that the
// written log reads back (auto-detected) in either encoding.
func TestRunOneFrame(t *testing.T) {
	for _, format := range []string{"jsonl", "binary"} {
		t.Run(format, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "edge."+format)
			var buf bytes.Buffer
			err := run([]string{"-frames", "1", "-parallel", "2", "-bug", "normalization",
				"-log-format", format, "-o", out}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "edgerun: wrote") || !strings.Contains(buf.String(), format) {
				t.Errorf("missing summary line: %q", buf.String())
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			l, err := core.ReadLog(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(l.Records) == 0 {
				t.Error("log has no records")
			}
			if got := l.Frames(); got != 2 { // frames are 1-based: one frame -> max index 1
				t.Errorf("Frames() = %d, want 2", got)
			}
		})
	}
}

// TestRunFleet drives the fleet mode end to end: per-device shard logs land
// next to the merged log, every log reads back, and the merged record count
// equals the sum of the shards'.
func TestRunFleet(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "edge.jsonl")
	var buf bytes.Buffer
	err := run([]string{"-frames", "4", "-fleet", "Pixel4:2:2,Pixel3:1", "-shard", "round-robin", "-o", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	readLog := func(path string) *core.Log {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		l, err := core.ReadLog(f)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	merged := readLog(out)
	shardRecords := 0
	for _, name := range []string{"edge.d0-Pixel4.jsonl", "edge.d1-Pixel3.jsonl"} {
		l := readLog(filepath.Join(dir, name))
		if len(l.Records) == 0 {
			t.Errorf("%s has no records", name)
		}
		shardRecords += len(l.Records)
	}
	if len(merged.Records) == 0 || len(merged.Records) != shardRecords {
		t.Errorf("merged log has %d records, shards total %d", len(merged.Records), shardRecords)
	}
	if got := merged.Frames(); got != 5 { // frames are 1-based: four frames -> max index 4
		t.Errorf("merged Frames() = %d, want 5", got)
	}
	if !strings.Contains(buf.String(), "fleet (round-robin policy) merged") {
		t.Errorf("missing fleet summary line:\n%s", buf.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("unknown flag should error")
	}
	if err := run([]string{"-model", "no-such-model"}, &buf); err == nil {
		t.Error("unknown model should error")
	}
	if err := run([]string{"-device", "no-such-device"}, &buf); err == nil {
		t.Error("unknown device should error")
	}
	// Replay sizing is validated up front: 0/negative values get a clear
	// error instead of hanging or panicking in the engine.
	for _, args := range [][]string{
		{"-frames", "0"},
		{"-frames", "-3"},
		{"-parallel", "-1"},
		{"-batch", "0"},
		{"-batch", "-8"},
		{"-fleet", "Pixel4:0"},
		{"-fleet", "Pixel4:1:-2"},
		{"-fleet", "NoSuchDevice:1"},
		{"-fleet", "Pixel4:2", "-shard", "zigzag"},
		{"-kernel", "blocked"}, // deleted backend: must not alias to the default
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v should error", args)
		}
	}
}

// getDeviceStatus fetches one device session's status from the collector.
func getDeviceStatus(t *testing.T, base, device string) ingest.DeviceStatus {
	t.Helper()
	resp, err := http.Get(base + "/devices/" + device)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/devices/%s status %d", device, resp.StatusCode)
	}
	var st ingest.DeviceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunUpload drives -upload: the replay's telemetry lands both in the
// local log(s) and in a live collector, one session per device, with the
// collector's per-session record counts matching the local logs. The upload
// is binary whatever -log-format writes locally: both formats must reach the
// collector as the same chunks and yield the same report. Chunks go plain by
// default; the -upload-gzip=true opt-in must deliver the same session on
// fewer wire bytes.
func TestRunUpload(t *testing.T) {
	srv, err := ingest.NewServer(ingest.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	readLog := func(path string) *core.Log {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		l, err := core.ReadLog(f)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	t.Run("single", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "edge.jsonl")
		var buf bytes.Buffer
		if err := run([]string{"-frames", "2", "-parallel", "2", "-upload", ts.URL, "-o", out}, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "uploaded") {
			t.Errorf("missing upload summary:\n%s", buf.String())
		}
		local := readLog(out)
		st := getDeviceStatus(t, ts.URL, "Pixel4")
		if st.Records != len(local.Records) || st.Records == 0 {
			t.Errorf("collector holds %d records, local log %d", st.Records, len(local.Records))
		}
	})

	t.Run("formats", func(t *testing.T) {
		dir := t.TempDir()
		refPath := filepath.Join(dir, "ref.jsonl")
		if err := run([]string{"-frames", "3", "-o", refPath}, io.Discard); err != nil {
			t.Fatal(err)
		}
		ref := readLog(refPath)

		// upload runs the same bugged replay against a fresh validating
		// collector and returns what that collector saw.
		upload := func(format string, extra ...string) ingest.DeviceStatus {
			srv, err := ingest.NewServer(ingest.ServerOptions{Ref: ref})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			var buf bytes.Buffer
			err = run(append([]string{"-frames", "3", "-bug", "normalization", "-log-format", format,
				"-upload", ts.URL, "-o", filepath.Join(dir, "edge."+format)}, extra...), &buf)
			if err != nil {
				t.Fatal(err)
			}
			st := getDeviceStatus(t, ts.URL, "Pixel4")
			if st.Report == nil {
				t.Fatalf("%s: no report: %s", format, st.ReportError)
			}
			// Wall-clock values aside: the straggler analysis reads measured
			// per-layer latencies.
			st.LastSeen = time.Time{}
			st.Report.Stragglers = nil
			st.Report.Findings = slices.DeleteFunc(st.Report.Findings, func(f core.Finding) bool {
				return f.Assertion == core.StragglerAssertion{}.Name()
			})
			return st
		}
		jsonl, binary := upload("jsonl"), upload("binary")
		if jsonl.Chunks == 0 || jsonl.Bytes == 0 || len(jsonl.Report.Findings) == 0 {
			t.Fatalf("vacuous comparison: %+v", jsonl)
		}
		if !reflect.DeepEqual(jsonl, binary) {
			t.Errorf("collector saw different uploads for the two local formats:\njsonl:  %+v\nbinary: %+v", jsonl, binary)
		}
		gz := upload("binary", "-upload-gzip=true")
		if gz.Bytes >= binary.Bytes {
			t.Errorf("gzip upload took %d wire bytes, the default (plain) upload %d", gz.Bytes, binary.Bytes)
		}
		gz.Bytes = binary.Bytes
		if !reflect.DeepEqual(gz, binary) {
			t.Errorf("gzip upload reached the collector as a different session:\ngzip:  %+v\nplain: %+v", gz, binary)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "edge.jsonl")
		var buf bytes.Buffer
		err := run([]string{"-frames", "4", "-fleet", "Pixel4:2:2,Pixel3:1", "-log-format", "binary",
			"-upload", ts.URL, "-o", out}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"d0-Pixel4", "d1-Pixel3"} {
			local := readLog(filepath.Join(dir, "edge."+name+".jsonl"))
			st := getDeviceStatus(t, ts.URL, name)
			if st.Records != len(local.Records) || st.Records == 0 {
				t.Errorf("%s: collector holds %d records, shard log %d", name, st.Records, len(local.Records))
			}
		}
	})
}
