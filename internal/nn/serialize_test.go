package nn

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	def := TinyCNN(Shape{C: 1, H: 12, W: 12}, 4)
	net := def.Build(42)
	// Train-ish perturbation so params are not just the init.
	for i := range net.Params {
		net.Params[i] += float32(i%7) * 0.01
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Def.Name != def.Name || got.ParamCount() != net.ParamCount() {
		t.Fatalf("definition mismatch: %+v", got.Def)
	}
	for i := range net.Params {
		if got.Params[i] != net.Params[i] {
			t.Fatalf("param %d: %v != %v", i, got.Params[i], net.Params[i])
		}
	}
	// The loaded network must be functional: same forward output.
	x := make([]float32, 144)
	for i := range x {
		x[i] = float32(i) / 144
	}
	a := net.Forward(x, 1, false)
	b := got.Forward(x, 1, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("forward mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte{1, 2}},
		{"huge-header", []byte{0xff, 0xff, 0xff, 0xff, 0, 0}},
		{"not-json", append([]byte{5, 0, 0, 0}, []byte("hello")...)},
	}
	for _, c := range cases {
		if _, err := Load(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: Load accepted garbage", c.name)
		}
	}
}

func TestLoadRejectsWrongMagicAndVersion(t *testing.T) {
	def := TinyCNN(Shape{C: 1, H: 8, W: 8}, 3)
	net := def.Build(1)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic inside the JSON header.
	data := buf.Bytes()
	s := string(data)
	s = strings.Replace(s, "scaledl-net", "scaledl-NOT", 1)
	if _, err := Load(strings.NewReader(s)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("wrong magic accepted: %v", err)
	}
}

func TestLoadRejectsTruncatedParams(t *testing.T) {
	def := TinyCNN(Shape{C: 1, H: 8, W: 8}, 3)
	net := def.Build(1)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated file accepted")
	}
}
