package vec_test

import (
	"testing"

	"plasmahd/internal/vec"
	"plasmahd/internal/vec/vectest"
)

// TestCheckRefusesMalformedRows: the one row check reports the first
// violation of each malformed row in the shared table, and passes a
// well-formed one.
func TestCheckRefusesMalformedRows(t *testing.T) {
	if err := vectest.Good.Check(vectest.Dim); err != nil {
		t.Fatalf("good row refused: %v", err)
	}
	if err := (vec.Sparse{}).Check(vectest.Dim); err != nil {
		t.Fatalf("empty row refused: %v", err)
	}
	for _, tc := range vectest.Malformed {
		err := tc.Row.Check(vectest.Dim)
		if err == nil || err.Error() != tc.Err {
			t.Errorf("%s: err = %v, want %q", tc.Name, err, tc.Err)
		}
	}
}
