package evalopt

import (
	"errors"
	"math"
	"testing"

	"udm/internal/kernel"
	"udm/internal/udmerr"
)

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendDefault, true},
		{"exact", BackendExact, true},
		{"grid", BackendGrid, true},
		{"micro", BackendMicro, true},
		{"  GRID ", BackendGrid, true}, // case/space insensitive wire form
		{"hbe", BackendDefault, false}, // the removed hashing-based rung
		{"forest", BackendDefault, false},
		{"exactish", BackendDefault, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v, nil", c.in, got, err, c.want)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("ParseBackend(%q): want error", c.in)
			} else if !errors.Is(err, udmerr.ErrBadOption) {
				t.Errorf("ParseBackend(%q) error %v does not wrap ErrBadOption", c.in, err)
			}
		}
	}
}

func TestParseGrammar(t *testing.T) {
	cases := []struct {
		in   string
		want Options
	}{
		{"", Options{}},
		{"backend=micro", Options{Backend: BackendMicro}},
		{"grid", Options{Backend: BackendGrid}}, // bare-name shorthand
		{"backend=grid,cells=64", Options{Backend: BackendGrid, GridCells: 64}},
		{"backend=micro,q=200,seed=7", Options{Backend: BackendMicro, MicroClusters: 200, Seed: 7}},
		{"backend=grid,epsilon=0.05", Options{Backend: BackendGrid, Epsilon: 0.05}},
		{"eps=0.2", Options{Epsilon: 0.2}}, // eps alias
		{"prune=1e-3", Options{Prune: 1e-3}},
		{"accuracy=exact", Options{}},
		{"accuracy=approx", Options{Accuracy: kernel.Approx(kernel.DefaultApproxEps)}},
		{"accuracy=approx(1e-6)", Options{Accuracy: kernel.Approx(1e-6)}},
		{" backend = grid , epsilon = 0.1 ", Options{Backend: BackendGrid, Epsilon: 0.1}},
		{"backend=grid,backend=micro", Options{Backend: BackendMicro}}, // later key wins
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"backend=forest",         // unknown backend
		"turbo=1",                // unknown key
		"epsilon=fast",           // malformed float
		"epsilon=-0.1",           // out of domain
		"delta=1.5",              // unknown key
		"delta=x",                // unknown key
		"prune=-1",               // out of domain
		"accuracy=approx(",       // malformed accuracy
		"accuracy=approx(-1)",    // invalid budget
		"accuracy=sloppy",        // unknown mode
		"cells=three",            // malformed int
		"workers=2",              // the removed fan-out key
		"seed=1.5",               // malformed int64
		"cells=-2",               // out of domain
		"cells=1000000",          // above cap
		"q=-3",                   // out of domain
		"backend",                // bare token that is not a backend... actually "backend" is not a valid backend name
		"epsilon",                // bare token, not a backend
		"backend=grid,epsilon=x", // error in later field still surfaces
		"hbe",                    // the removed rung's bare name
		"backend=hbe",            // ...and its key=value form
		"delta=0.01",             // the removed rung's failure probability
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		} else if !errors.Is(err, udmerr.ErrBadOption) {
			t.Errorf("Parse(%q) error %v does not wrap ErrBadOption", s, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []Options{
		{},
		{Backend: BackendMicro},
		{Backend: BackendGrid, Epsilon: 0.05},
		{Backend: BackendGrid, GridCells: 64},
		{Backend: BackendMicro, MicroClusters: 140, Seed: 42},
		{Prune: 1e-3, Accuracy: kernel.Approx(1e-6)},
	}
	for _, o := range cases {
		s := o.String()
		back, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(String(%+v) = %q): %v", o, s, err)
			continue
		}
		if back != o {
			t.Errorf("round trip %+v → %q → %+v", o, s, back)
		}
	}
	if s := (Options{}).String(); s != "" {
		t.Errorf("zero Options renders %q, want empty", s)
	}
}

func TestStringCanonical(t *testing.T) {
	// Equal configurations must render equal strings regardless of the
	// order keys were supplied in — String is used in cache keys.
	a, err := Parse("epsilon=0.05,backend=grid")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("backend=grid,epsilon=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("key order changes rendering: %q vs %q", a.String(), b.String())
	}
}

func TestValidate(t *testing.T) {
	good := []Options{
		{},
		{Backend: BackendExact},
		{Backend: BackendGrid, Epsilon: 0.1},
		{Prune: 0.5},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", o, err)
		}
	}
	bad := []Options{
		{Backend: "forest"},
		{Epsilon: -1},
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Prune: math.Inf(1)},
		{Prune: -0.5},
		{Accuracy: kernel.Approx(math.NaN())},
		{GridCells: -1},
		{GridCells: MaxGridCells + 1},
		{MicroClusters: -1},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", o)
		} else if !errors.Is(err, udmerr.ErrBadOption) {
			t.Errorf("Validate(%+v) error %v does not wrap ErrBadOption", o, err)
		}
	}
}

func TestEffDefaults(t *testing.T) {
	var o Options
	if got := o.EffEpsilon(); got != DefaultEpsilon {
		t.Errorf("EffEpsilon zero = %v, want %v", got, DefaultEpsilon)
	}
	if got := o.EffSeed(); got != DefaultSeed {
		t.Errorf("EffSeed zero = %v, want %v", got, DefaultSeed)
	}
	if got := o.EffMicroClusters(); got != DefaultMicroClusters {
		t.Errorf("EffMicroClusters zero = %v, want %v", got, DefaultMicroClusters)
	}
	o = Options{Epsilon: 0.2, Seed: 9, MicroClusters: 50}
	if o.EffEpsilon() != 0.2 || o.EffSeed() != 9 || o.EffMicroClusters() != 50 {
		t.Errorf("Eff* ignores explicit values: %+v", o)
	}
}
