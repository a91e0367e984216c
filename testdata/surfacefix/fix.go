// Package surfacefix is the surface ledger's rule fixture: each
// exported name is one case of TestSurfaceRules in surface_test.go, and
// cmd/user is its only non-test user outside the package.
package surfacefix

import "fmt"

// Doer is satisfied by Impl, whose Do nothing calls by name.
type Doer interface{ Do() int }

type Impl struct{}

func (Impl) Do() int { return Local() }

// String is called by fmt, which the ledger does not see.
func (Impl) String() string { return fmt.Sprint(1) }

// Box is generic: cmd/user calls Get on a Box[int].
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

// Config.Set is written by cmd/user; Config.Read is only read.
type Config struct {
	Set  int
	Read int
}

// Local is used only inside the package.
func Local() int { return 2 }

// TestOnly is used only by fix_test.go.
func TestOnly() int { return 3 }

// Dead has no user at all.
func Dead() {}
