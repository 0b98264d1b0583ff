package viz

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTable(t *testing.T) {
	var b bytes.Buffer
	Table(&b, []string{"name", "value"}, [][]string{{"alpha", "1"}, {"b", "22"}})
	out := b.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("%d lines want 4", len(lines))
	}
}

func TestChart(t *testing.T) {
	var b bytes.Buffer
	xs := []float64{0, 1, 2, 3}
	Chart(&b, "demo", xs, map[string][]float64{
		"up":   {0, 1, 2, 3},
		"down": {3, 2, 1, 0},
	}, 5)
	out := b.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "*") {
		t.Fatalf("chart output:\n%s", out)
	}
	// Degenerate inputs must not panic.
	Chart(&b, "empty", nil, nil, 5)
	Chart(&b, "nan", []float64{0}, map[string][]float64{"a": {math.NaN()}}, 5)
	Chart(&b, "flat", []float64{0, 1}, map[string][]float64{"a": {2, 2}}, 5)
}

func TestF(t *testing.T) {
	if F(3) != "3" {
		t.Errorf("F(3) = %s", F(3))
	}
	if F(0.5) != "0.500" {
		t.Errorf("F(0.5) = %s", F(0.5))
	}
	if F(123456) != "123456" {
		t.Errorf("F(123456) = %s", F(123456))
	}
	if !strings.Contains(F(123456.7), "1.23") {
		t.Errorf("F(123456.7) = %s", F(123456.7))
	}
	if !strings.Contains(F(0.0001), "0.0001") {
		t.Errorf("F(0.0001) = %s", F(0.0001))
	}
	if F(0) != "0" {
		t.Errorf("F(0) = %s", F(0))
	}
}
