package dataset

import (
	"bytes"
	"errors"

	"plasmahd/internal/wire"
)

// Binary codec for Spec, so a session snapshot can carry the recipe for its
// dataset and be rehydrated from the spec alone (no data shipped). The
// encoding is a small versioned record:
//
//	version uint8 (currently 1)
//	kind    uint16 length + bytes
//	name    uint16 length + bytes
//	rows    int64
//	edges   int64
//	seed    int64
//
// Spec.walk is the one description of the record; internal/wire drives it
// in both directions. Integrity (checksums) is the containing snapshot's
// job; this codec only validates its own structure.

// specCodecVersion is the current Spec wire version.
const specCodecVersion = 1

// ErrSpecCodec is wrapped by every Spec codec failure.
var ErrSpecCodec = errors.New("dataset: corrupt spec encoding")

var specErrors = wire.Errors{Corrupt: ErrSpecCodec}

// IsZero reports whether the spec names no source — the state of sessions
// created from uploaded data rather than a registry recipe.
func (s Spec) IsZero() bool {
	return s.Kind == "" && s.Name == "" && s.Rows == 0 && s.Edges == 0 && s.Seed == 0
}

// walk is the Spec record layout.
func (s *Spec) walk(c *wire.Codec) {
	if v := c.U8(specCodecVersion); v != specCodecVersion {
		c.Fail("unsupported version %d", v)
	}
	s.Kind = c.Str16(s.Kind)
	s.Name = c.Str16(s.Name)
	s.Rows = int(c.I64(int64(s.Rows)))
	s.Edges = int(c.I64(int64(s.Edges)))
	s.Seed = c.I64(s.Seed)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s Spec) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	c := wire.NewEncoder(&buf, specErrors)
	s.walk(c)
	return buf.Bytes(), c.Err()
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Spec) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	c := wire.NewDecoder(r, specErrors)
	var out Spec
	out.walk(c)
	if r.Len() != 0 {
		c.Fail("%d trailing bytes after spec record", r.Len())
	}
	if c.Err() != nil {
		return c.Err()
	}
	*s = out
	return nil
}
