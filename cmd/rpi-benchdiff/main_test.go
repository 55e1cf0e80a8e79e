package main

import (
	"io"
	"regexp"
	"testing"
)

func TestDiffJudgesAccuracyExactlyOnEveryRow(t *testing.T) {
	re := regexp.MustCompile(defaultHeadline)
	acc := func(a, c, f float64) map[string]float64 {
		return map[string]float64{"ACC%": a, "COV%": c, "FPR%": f}
	}
	base := map[string]Record{
		"BenchmarkFullPipeline":              {NsPerOp: 100},
		"BenchmarkAblationBaselinePipeline":  {NsPerOp: 100, Metrics: acc(94.24, 94.13, 5.169)},
		"BenchmarkAblationAliasCoverageMode": {NsPerOp: 100, Metrics: acc(93.67, 94.47, 6.05)},
		"BenchmarkAblationStepOrder":         {NsPerOp: 100, Metrics: map[string]float64{"ACC%": 92.93, "FNR%": 10.99}},
		"BenchmarkGone":                      {NsPerOp: 100, Metrics: acc(1, 2, 3)},
	}
	cases := []struct {
		name                  string
		fresh                 map[string]Record
		compared, regressions int
		accuracy, drifts      int
	}{
		{
			name: "unchanged",
			fresh: map[string]Record{
				"BenchmarkFullPipeline":              {NsPerOp: 110},
				"BenchmarkAblationBaselinePipeline":  {NsPerOp: 900, Metrics: acc(94.24, 94.13, 5.169)},
				"BenchmarkAblationAliasCoverageMode": {NsPerOp: 100, Metrics: acc(93.67, 94.47, 6.05)},
				"BenchmarkAblationStepOrder":         {NsPerOp: 100, Metrics: map[string]float64{"ACC%": 92.93, "FNR%": 10.99}},
			},
			// Ablation ns/op is outside the headline set; BenchmarkGone
			// is absent from fresh.
			compared: 1, accuracy: 8,
		},
		{
			name: "drift outside the headline set",
			fresh: map[string]Record{
				"BenchmarkFullPipeline":              {NsPerOp: 100},
				"BenchmarkAblationBaselinePipeline":  {NsPerOp: 100, Metrics: acc(94.24, 94.12, 5.169)},
				"BenchmarkAblationAliasCoverageMode": {NsPerOp: 100, Metrics: acc(93.68, 94.47, 6.06)},
				"BenchmarkAblationStepOrder":         {NsPerOp: 100, Metrics: map[string]float64{"ACC%": 92.93, "FNR%": 12}},
			},
			compared: 1, accuracy: 8, drifts: 4,
		},
		{
			name: "metric missing on one side",
			fresh: map[string]Record{
				"BenchmarkFullPipeline":             {NsPerOp: 150},
				"BenchmarkAblationBaselinePipeline": {NsPerOp: 100, Metrics: map[string]float64{"ACC%": 94.24}},
			},
			compared: 1, regressions: 1, accuracy: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := diff(io.Discard, base, tc.fresh, re, 0.2)
			want := result{compared: tc.compared, regressions: tc.regressions, accuracy: tc.accuracy, drifts: tc.drifts}
			if got != want {
				t.Fatalf("diff = %+v, want %+v", got, want)
			}
		})
	}
}
