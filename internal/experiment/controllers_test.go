package experiment

import (
	"strings"
	"testing"

	"gals/internal/learn"
	"gals/internal/resultcache"
	"gals/internal/sweep"
)

// TestControllersExperiment runs the four-family comparison at a tiny
// window: shape, per-policy columns, the trained-artifact provenance note
// and the policy x start product-space notes.
func TestControllersExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("controller comparison in -short mode")
	}
	o := Options{Window: 3_000, PLLScale: 0.1, Seed: 42}
	tab, err := Run("controllers", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 40 {
		t.Fatalf("controllers table has %d rows, want 40", len(tab.Rows))
	}
	if want := []string{"benchmark", "t_frozen(us)", "paper %", "feedback %", "learned %"}; len(tab.Header) != len(want) {
		t.Fatalf("header %v, want %v", tab.Header, want)
	}
	rendered := tab.Render()
	for _, want := range []string{
		"mean improvement over frozen",
		"total reconfigurations",
		"learned weights artifact",
		"start sensitivity frozen",
		"start sensitivity learned",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

// TestControllersReusesSidecarArtifact: with a persistent store in Env,
// the experiment writes its training's sidecar there, and a repeat in a
// second process (a second Open of the same directory) loads it instead of
// retraining: it misses nothing and writes nothing.
func TestControllersReusesSidecarArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("controller comparison in -short mode")
	}
	dir := t.TempDir()
	c, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Window: 2_000, PLLScale: 0.1, Seed: 43, Env: sweep.Env{Cache: c}}
	if _, err := Run("controllers", o); err != nil {
		t.Fatal(err)
	}
	key := learn.ArtifactKey(learn.TrainOptions{Window: o.Window, PLLScale: o.PLLScale, Seed: o.Seed})
	if !c.Has(key) {
		t.Fatal("first controllers run left no sidecar artifact")
	}

	second, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Env.Cache = second
	if _, err := Run("controllers", o); err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("second controllers run missed %d and wrote %d entries, want 0 and 0 (retrained?)", st.Misses, st.Puts)
	}
}
