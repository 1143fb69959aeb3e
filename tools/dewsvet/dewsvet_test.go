package main

import (
	"testing"

	"repro/tools/dewsvet/analysistest"
	"repro/tools/dewsvet/analyzers"
)

func TestLockhold(t *testing.T) {
	analysistest.Run(t, analyzers.Lockhold, "lockhold", "dewsvet/testdata/lockhold")
}

func TestRcusnap(t *testing.T) {
	analysistest.Run(t, analyzers.Rcusnap, "rcusnap", "dewsvet/testdata/rcusnap")
}

func TestWralerr(t *testing.T) {
	// The golden package masquerades as the WAL package: wralerr scopes
	// by import path.
	analysistest.Run(t, analyzers.Wralerr, "wralerr", "repro/internal/eventlog")
}

func TestWralerrScope(t *testing.T) {
	// Outside the durability-critical packages the analyzer stays quiet.
	analysistest.Run(t, analyzers.Wralerr, "wralerr_scope", "repro/internal/cep")
}
