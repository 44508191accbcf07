package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, want := range []string{"T1.R1", "T1.R12", "F1", "M1", "A5"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunFigure1Markdown(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-id", "F1"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "### F1") || !strings.Contains(out.String(), "| 1e |") {
		t.Fatalf("markdown output:\n%s", out.String())
	}
}

func TestRunFigure1CSV(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-id", "F1", "-format", "csv"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "# F1:") || !strings.Contains(out.String(), "panel,game") {
		t.Fatalf("csv output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-id", "nope"}, &out, &errw); code == 0 {
		t.Error("unknown id should fail")
	}
	if code := run([]string{"-id", "F1", "-format", "bogus"}, &out, &errw); code == 0 {
		t.Error("unknown format should fail")
	}
	// -driver is gone: multi-copy runs always use the broadcast driver.
	errw.Reset()
	if code := run([]string{"-id", "F1", "-driver", "replay"}, &out, &errw); code != 2 ||
		!strings.Contains(errw.String(), "flag provided but not defined: -driver") {
		t.Errorf("-driver: code = %d, stderr %q; want 2 and an undefined-flag error", code, errw.String())
	}
}
