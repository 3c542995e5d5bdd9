package service

import (
	"fmt"
	"net/http"
	"testing"
)

// TestRefusalBodies pins the 400 bodies of refused runs and sweeps: the
// full text, whichever layer checks the unit.
func TestRefusalBodies(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		path, body, want string
	}{
		{"/run", `{"benchmark":"gcc","machine":"gals","slowdowns":{"warp":2}}`,
			"campaign: unknown clock domain \"warp\" for machine \"gals\" in slowdowns (its domains: [fetch decode int fp mem], or \"all\" for a uniform slowdown)"},
		{"/run", `{"benchmark":"gcc","machine":"base","dynamic_dvfs":true}`,
			"campaign: dynamic DVFS requires a machine with a dynamic-capable clock domain; \"base\" has none (use the gals machine, or declare a domain with \"dvfs\": \"dynamic\")"},
		{"/run", `{"benchmark":"nope"}`,
			"workload: unknown benchmark \"nope\" (known: [adpcm epic g721 mpeg2 applu fpppp swim compress gcc go ijpeg li m88ksim perl vortex])"},
		{"/run", `{"benchmark":"gcc","machine":"warp"}`,
			"campaign: unknown machine \"warp\" (built-in machines: base, gals; or supply a full machine spec)"},
		{"/run", `{"benchmark":"gcc","machine_spec":{"name":"hot","domains":[{"name":"core","voltages":[{"slowdown":1,"voltage":2.5}]}],"assign":{"fetch":"core","decode":"core","int":"core","fp":"core","mem":"core"}}}`,
			"machine: hot: domain \"core\" voltage point 0: voltage 2.5 outside (0, 1.65] (the nominal supply)"},
		{"/sweep", `{"benchmarks":["gcc","nope"],"machines":["gals"],"instructions":2000}`,
			"campaign: sweep unit 1: workload: unknown benchmark \"nope\" (known: [adpcm epic g721 mpeg2 applu fpppp swim compress gcc go ijpeg li m88ksim perl vortex])"},
		{"/sweep", `{"benchmarks":["gcc"],"machines":["gals","warp"],"instructions":2000}`,
			"unknown machine \"warp\" in sweep (built-in machines: base, gals; uploaded: [])"},
		{"/sweep", `{"benchmarks":["gcc"],"machines":["base"],"slowdown_grid":[{},{"fp":2}],"instructions":2000}`,
			"campaign: sweep slowdown grid names clock domain \"fp\", which belongs to none of the swept machines (their domains: [core], or \"all\" for a uniform slowdown)"},
		{"/sweep", `{"benchmarks":["gcc"],"machines":["gals"],"link_style":"bogus","instructions":2000,"warmup":1000}`,
			"campaign: sweep unit 0: campaign: unknown link style \"bogus\" (want fifo or stretch)"},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+c.path, c.body)
		want := fmt.Sprintf("{\n  \"error\": %s\n}\n", mustJSON(t, c.want))
		if resp.StatusCode != http.StatusBadRequest || string(body) != want {
			t.Errorf("POST %s %s:\n got %d %s\nwant 400 %s", c.path, c.body, resp.StatusCode, body, want)
		}
	}
}
