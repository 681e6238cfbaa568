package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlexray/internal/core"
)

// TestRunOneFrame drives a one-frame reference run end to end in both log
// encodings and checks the streamed log reads back via auto-detection.
func TestRunOneFrame(t *testing.T) {
	for _, format := range []string{"jsonl", "binary"} {
		t.Run(format, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "ref."+format)
			var buf bytes.Buffer
			if err := run([]string{"-frames", "1", "-parallel", "2", "-log-format", format, "-o", out}, &buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "refrun: wrote") {
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
		})
	}
}

func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Error("unknown flag should error")
	}
	if err := run([]string{"-model", "no-such-model"}, &buf); err == nil {
		t.Error("unknown model should error")
	}
	if err := run([]string{"-log-format", "xml"}, &buf); err == nil {
		t.Error("unknown log format should error")
	}
	for _, args := range [][]string{
		{"-frames", "0"},
		{"-parallel", "-1"},
		{"-batch", "0"},
		{"-kernel", "tiled"}, // the reference resolver has no backend seam, so no flag
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v should error", args)
		}
	}
}
