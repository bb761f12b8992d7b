package analysis_test

import (
	"testing"

	"nostop/internal/analysis"
	"nostop/internal/analysis/analysistest"
)

func TestDeadAPI(t *testing.T) {
	analysistest.Run(t, analysis.DeadAPI, "deadapi", nil)
}
