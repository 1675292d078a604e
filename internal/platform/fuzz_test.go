package platform_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/platgen"
)

// FuzzPlatformDecode holds platform.Decode, where uploaded platforms
// enter (POST /sessions, snapshot restore), to its contract on any
// bytes: it never panics; what it accepts passes ValidateStrict, is
// within MaxClusters and MaxRouters, has a route for every pair of
// clusters, and decodes from its own Encode to an equal platform; what
// it refuses is an error and no platform.
func FuzzPlatformDecode(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pl, err := platgen.Generate(platgen.Params{K: 1 + int(seed), Connectivity: 0.5, Heterogeneity: 0.4, MeanG: 150, MeanBW: 20, MeanMaxCon: 5}, rng)
		if err != nil {
			f.Fatal(err)
		}
		data, err := pl.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The mixed-LAN platform: two clusters behind one router (an empty
	// route, MinBW = +Inf) and a third across a backbone link.
	f.Add([]byte(`{"routers":2,"links":[{"u":0,"v":1,"bw":10,"maxConnect":5}],"clusters":[` +
		`{"name":"a","speed":100,"gateway":50,"router":0},` +
		`{"name":"b","speed":80,"gateway":40,"router":0},` +
		`{"name":"c","speed":60,"gateway":30,"router":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := platform.Decode(data)
		if err != nil {
			if pl != nil {
				t.Fatalf("Decode refused %q (%v) but returned a platform", data, err)
			}
			return
		}
		if pl == nil {
			t.Fatalf("Decode accepted %q but returned no platform", data)
		}
		if err := pl.ValidateStrict(); err != nil {
			t.Fatalf("Decode accepted %q, which ValidateStrict refuses: %v", data, err)
		}
		if pl.K() > platform.MaxClusters || pl.Routers > platform.MaxRouters {
			t.Fatalf("Decode accepted %d clusters and %d routers, past the bounds %d and %d", pl.K(), pl.Routers, platform.MaxClusters, platform.MaxRouters)
		}
		for k := 0; k < pl.K(); k++ {
			for l := 0; l < pl.K(); l++ {
				if rt := pl.Route(k, l); k == l && !rt.Exists {
					t.Fatalf("%q: no local route at cluster %d", data, k)
				}
			}
		}
		enc, err := pl.Encode()
		if err != nil {
			t.Fatalf("Encode of accepted %q: %v", data, err)
		}
		again, err := platform.Decode(enc)
		if err != nil {
			t.Fatalf("Decode refuses Encode's %q of accepted %q: %v", enc, data, err)
		}
		if !reflect.DeepEqual(again, pl) {
			t.Fatalf("Encode → Decode of accepted %q changed the platform:\n%+v\nto\n%+v", data, pl, again)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("a second Encode of %q differs (%v):\n%s\n%s", data, err, enc, enc2)
		}
	})
}
