// Package server is the errtaxonomy fixture, named server so rule 3
// (taxonomy coverage) applies. It models the real server's typed-error
// taxonomy with local types plus the real budget classifiers.
package server

import (
	"errors"
	"fmt"

	"aggview/internal/budget"
)

// ShedError, Injected and badQueryError model the taxonomy members the
// server classifies by errors.As target type.
type ShedError struct{ Tenant string }

func (e *ShedError) Error() string { return "shed: " + e.Tenant }

type Injected struct{}

func (e *Injected) Error() string { return "injected" }

type badQueryError struct{ err error }

func (e *badQueryError) Error() string { return "bad query" }

// same compares error values with ==: rule 1.
func same(a, b error) bool {
	return a == b // want `use errors.Is`
}

// nilCheck compares against the nil literal: quiet.
func nilCheck(err error) bool {
	return err == nil
}

// isCheck classifies through errors.Is: quiet.
func isCheck(a, b error) bool {
	return errors.Is(a, b)
}

// sentinelCompare documents why == is safe here: suppressed.
func sentinelCompare(a, b error) bool {
	//aggvet:errtaxonomy both operands are unwrapped sentinels minted in this package.
	return a == b
}

// wrapBad launders the taxonomy type with %v on a propagation path:
// rule 2.
func wrapBad(err error) error {
	return fmt.Errorf("query: %v", err) // want `without %w`
}

// wrapGood preserves the chain: quiet.
func wrapGood(err error) error {
	return fmt.Errorf("query: %w", err)
}

// logBad formats an error with %v but returns none — not a propagation
// path: quiet.
func logBad(err error) string {
	return fmt.Errorf("query: %v", err).Error()
}

// status covers the full taxonomy: quiet under rule 3.
func status(err error) int {
	var shed *ShedError
	var inj *Injected
	var bad *badQueryError
	switch {
	case errors.As(err, &shed):
		return 429
	case budget.IsCanceled(err):
		return 504
	case budget.IsExceeded(err):
		return 422
	case errors.As(err, &inj):
		return 502
	case errors.As(err, &bad):
		return 400
	}
	return 500
}

// partialStatus tests two members and forgets the rest, which fall
// through to 500: rule 3.
func partialStatus(err error) int {
	var shed *ShedError
	if errors.As(err, &shed) { // want `misses Exceeded, Injected, badQueryError`
		return 429
	}
	if budget.IsCanceled(err) {
		return 504
	}
	return 500
}

// isShed peels off a single case — not a classification chain: quiet.
func isShed(err error) bool {
	var shed *ShedError
	return errors.As(err, &shed)
}

// assertShed type-asserts to a concrete member: rule 4.
func assertShed(err error) string {
	if se, ok := err.(*ShedError); ok { // want `use errors.As`
		return se.Tenant
	}
	return ""
}

// switchStatus type-switches on concrete members: rule 4, once per
// concrete case; the nil case is quiet.
func switchStatus(err error) int {
	switch e := err.(type) {
	case nil:
		return 200
	case *Injected: // want `use errors.As`
		return 502
	case *badQueryError: // want `use errors.As`
		_ = e
		return 400
	}
	return 500
}

// unwrapOnce asserts to an interface, a capability test rather than a
// taxonomy match: quiet.
func unwrapOnce(err error) error {
	if u, ok := err.(interface{ Unwrap() error }); ok {
		return u.Unwrap()
	}
	return nil
}

// Is lets errors.Is match any *ShedError; errors.Is has already peeled
// the chain before it calls Is, so the assertion is justified.
func (e *ShedError) Is(target error) bool {
	//aggvet:errtaxonomy errors.Is unwraps before calling Is; target is one link of the chain, never a wrapper.
	_, ok := target.(*ShedError)
	return ok
}
