// Package tupletest holds helpers for tests that compare rows.
package tupletest

import (
	"strings"

	"viewmat/internal/tuple"
)

// Key renders vals as a string key to sort and compare rows by: each
// value as its type and its tuple.Canonical form (strings quoted), so two
// rows share a key exactly when they are equal value by value under
// tuple.Equal — I(1) and F(1) apart, −0 and +0 together, every NaN one.
func Key(vals []tuple.Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Type().String())
		b.WriteByte(':')
		b.WriteString(tuple.Canonical(v).String())
	}
	return b.String()
}
