package vec_test

import (
	"testing"

	"plasmahd/internal/vec"
	"plasmahd/internal/vec/vectest"
)

// TestCheckRefusesMalformedRows: the one row check reports the first
// violation of each malformed row in the shared table under the row's
// measure, and passes the well-formed ones.
func TestCheckRefusesMalformedRows(t *testing.T) {
	for _, m := range []vec.Measure{vec.CosineSim, vec.JaccardSim} {
		if err := vectest.Good.Check(vectest.Dim, m); err != nil {
			t.Fatalf("%v: good row refused: %v", m, err)
		}
		if err := (vec.Sparse{}).Check(vectest.Dim, m); err != nil {
			t.Fatalf("%v: empty row refused: %v", m, err)
		}
	}
	for _, tc := range vectest.Rows {
		err := tc.Row.Check(vectest.Dim, tc.Measure)
		if tc.Err == "" && err != nil || tc.Err != "" && (err == nil || err.Error() != tc.Err) {
			t.Errorf("%s: err = %v, want %q", tc.Name, err, tc.Err)
		}
	}
}
