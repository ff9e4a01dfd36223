package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %s:\n%s", id, out.String())
		}
	}
}

func TestRunSingleExperimentQuick(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "e5"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "E5") || !strings.Contains(text, "naive fast MWMR") {
		t.Errorf("unexpected output:\n%s", text)
	}
	if strings.Contains(text, "completed") {
		t.Errorf("stdout carries something besides the tables:\n%s", text)
	}
}

func TestRunMarkdownOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-markdown", "-exp", "E5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| S |") {
		t.Errorf("markdown table missing:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E42"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	for _, flag := range []string{"-definitely-not-a-flag", "-quick", "-delay=1ms", "-seed=1"} {
		var out bytes.Buffer
		if err := run([]string{flag}, &out); err == nil {
			t.Errorf("flag %s accepted", flag)
		}
	}
}
