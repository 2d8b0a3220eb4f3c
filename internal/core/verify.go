package core

import (
	"testing"

	"npdbench/internal/rewrite"
	"npdbench/internal/sqldb"
)

// VerifyMode controls the per-transform plan verifier (package planck).
type VerifyMode int

const (
	// VerifyAuto (the zero value) verifies plans when running under `go
	// test` and skips verification otherwise: the invariants guard the
	// test suite and the CI pipeline for free without taxing production
	// query latency.
	VerifyAuto VerifyMode = iota
	// VerifyOn checks every transform unconditionally (obdaq -verify).
	VerifyOn
	// VerifyOff disables the verifier (overhead measurements).
	VerifyOff
)

func (m VerifyMode) enabled() bool {
	switch m {
	case VerifyOn:
		return true
	case VerifyOff:
		return false
	default:
		return testing.Testing()
	}
}

// verifyCQ checks the translated CQ after a pipeline stage; a nil error
// means verification is off or the plan is sound.
func (e *Engine) verifyCQ(stage string, cq *rewrite.CQ) error {
	if !e.verify {
		return nil
	}
	return e.verifier.CheckCQ(stage, cq)
}

func (e *Engine) verifyUCQ(stage string, ucq rewrite.UCQ, answer []string) error {
	if !e.verify {
		return nil
	}
	return e.verifier.CheckUCQ(stage, ucq, answer)
}

func (e *Engine) verifySQL(stage string, stmt *sqldb.SelectStmt, vars []string) error {
	if !e.verify {
		return nil
	}
	return e.verifier.CheckSQL(stage, stmt, vars)
}
