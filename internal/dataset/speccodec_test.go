package dataset

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"plasmahd/internal/wire/wiretest"
)

func recodeSpec(data []byte) ([]byte, error) {
	var s Spec
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s.MarshalBinary()
}

// TestSpecGolden decodes the checked-in spec record — written by the encoder
// of the commit that introduced the version — and re-encodes it byte for
// byte: the guard against layout drift without a version bump.
func TestSpecGolden(t *testing.T) {
	wiretest.Golden(t, wiretest.Format{
		Name:         "spec",
		Version:      specCodecVersion,
		VersionConst: "specCodecVersion",
		Sums: map[string]string{
			"spec-v1-graph.bin": "f3d9c73e808dff688abb5e4a532d1f1a17c27e69a88cb8adb343586297fa6da0",
		},
		Recode:     recodeSpec,
		ErrVersion: ErrSpecCodec,
	})
	var s Spec
	if err := s.UnmarshalBinary(wiretest.Files(t, "spec-v1-graph.bin")["spec-v1-graph.bin"]); err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Kind: "graph", Name: "ba", Rows: 500, Edges: 2000, Seed: -7}); s != want {
		t.Errorf("golden decodes to %+v, want %+v", s, want)
	}
}

// TestSpecCodecRefusals: every decode failure, and an unencodable spec, is
// an ErrSpecCodec.
func TestSpecCodecRefusals(t *testing.T) {
	good, err := Spec{Kind: "table", Name: "wine", Seed: 1}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":          nil,
		"bad version":    append([]byte{99}, good[1:]...),
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0),
	} {
		s := Spec{Kind: "untouched"}
		if err := s.UnmarshalBinary(data); !errors.Is(err, ErrSpecCodec) {
			t.Errorf("%s: err = %v, want ErrSpecCodec", name, err)
		}
		if s.Kind != "untouched" {
			t.Errorf("%s: failed decode modified the receiver", name)
		}
	}
	if _, err := (Spec{Name: strings.Repeat("n", 1<<16)}).MarshalBinary(); !errors.Is(err, ErrSpecCodec) {
		t.Errorf("over-long name: err = %v, want ErrSpecCodec", err)
	}
}

// FuzzSpecUnmarshal feeds arbitrary bytes to the spec decoder (it parses the
// spec blob of uploaded session snapshots). It must never panic, and a
// record it accepts is canonical: it re-encodes to the same bytes.
func FuzzSpecUnmarshal(f *testing.F) {
	for _, data := range wiretest.Files(f, "spec-v*") {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{specCodecVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := recodeSpec(data)
		if err != nil {
			return
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted record % x re-encodes to % x", data, out)
		}
	})
}
