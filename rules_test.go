package veridp

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"veridp/internal/controller"
	"veridp/internal/core"
	"veridp/internal/flowtable"
	"veridp/internal/openflow"
)

// saveRules returns the rule cache of a monitor over logical.
func saveRules(t testing.TB, net *Network, logical map[SwitchID]*flowtable.SwitchConfig) []byte {
	t.Helper()
	b, err := NewMonitor(net, logical, MonitorConfig{}).SaveRules()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cacheRecord appends one switch record, as the encoder lays it out, to b.
func cacheRecord(b []byte, id SwitchID, rules ...*flowtable.Rule) []byte {
	dump := openflow.MarshalTableDump(rules)
	b = binary.BigEndian.AppendUint16(b, uint16(id))
	return append(binary.BigEndian.AppendUint32(b, uint32(len(dump))), dump...)
}

// routedConfigs returns the logical configurations of a controller that
// routed every host of net.
func routedConfigs(t testing.TB, net *Network) map[SwitchID]*flowtable.SwitchConfig {
	t.Helper()
	ctrl := controller.New(net, &flowModLog{})
	if err := ctrl.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	return ctrl.Logical()
}

// sameRules fails the test unless got and want hold the same rules, in the
// same order, on every switch.
func sameRules(t *testing.T, got, want map[SwitchID]*flowtable.SwitchConfig) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d switch configurations, want %d", len(got), len(want))
	}
	for id, cfg := range want {
		if g, ok := got[id]; !ok || !reflect.DeepEqual(g.Table.Rules(), cfg.Table.Rules()) {
			t.Fatalf("switch %d: rules differ", id)
		}
	}
}

// TestRuleCacheWarmStartFigure5: the running example's rules survive the
// cache onto a freshly built copy of the topology, the monitor rebuilt from
// them publishes the table Algorithm 2 builds over the saved rules, and it
// passes healthy traffic and catches and localizes a fault.
func TestRuleCacheWarmStartFigure5(t *testing.T) {
	em, ids := buildFigure5(t)
	saved := em.Controller.Logical()
	loaded, err := LoadRules(saveRules(t, em.Net, saved), Figure5())
	if err != nil {
		t.Fatal(err)
	}
	sameRules(t, loaded, saved)

	var violations []Violation
	mon := NewMonitor(em.Net, loaded, MonitorConfig{OnViolation: func(v Violation) { violations = append(violations, v) }})
	mon.Handle().Inspect(func(pt *core.PathTable) {
		want := (&core.Builder{Net: em.Net, Space: pt.Space, Params: pt.Params, Configs: saved}).Build()
		if err := mon.Handle().Current().Diff(want); err != nil {
			t.Fatal(err)
		}
	})
	em.monitor = mon

	ssh := Header{SrcIP: MustParseIP("10.0.1.1"), DstIP: MustParseIP("10.0.2.1"), Proto: 6, DstPort: 22}
	if _, err := em.Fabric.InjectFromHost("H1", ssh); err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("warm-started monitor rejects healthy traffic: %+v", violations[0])
	}
	s1 := em.Net.SwitchByName("S1").ID
	if err := em.Fabric.Switch(s1).Config.Table.Modify(ids["ssh"], func(r *Rule) { r.OutPort = 4 }); err != nil {
		t.Fatal(err)
	}
	if _, err := em.Fabric.InjectFromHost("H1", ssh); err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !violations[0].Localized || violations[0].FaultySwitch != s1 {
		t.Fatalf("warm-started monitor: violations %+v, want one blaming S1", violations)
	}
}

// TestLoadRulesRejects: a damaged cache, one that names a switch the
// topology lacks or holds a rule ID twice, and one saved on another
// topology all fail to load; a configuration with ACLs fails to save.
func TestLoadRulesRejects(t *testing.T) {
	fig5 := Figure5()
	valid := saveRules(t, fig5, routedConfigs(t, fig5))
	ft4 := saveRules(t, FatTree(4), routedConfigs(t, FatTree(4)))
	patch := func(off int, b ...byte) []byte {
		out := append([]byte(nil), valid...)
		copy(out[off:], b)
		return out
	}
	// header returns valid's header, claiming n switch records.
	header := func(n uint32) []byte {
		return binary.BigEndian.AppendUint32(append([]byte(nil), valid[:cacheHeaderLen-4]...), n)
	}
	s1 := fig5.SwitchByName("S1").ID
	rule := &flowtable.Rule{ID: 7, Priority: 1, Action: ActDrop}
	withACL := emptyConfigs(fig5)
	withACL[s1].InACL[1] = flowtable.ACL{{Match: Match{HasDst: true, DstPort: 22}}}

	load := func(b []byte, net *Network) func() error {
		return func() error { _, err := LoadRules(b, net); return err }
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"empty", load(nil, fig5), "not a rule cache"},
		{"truncated header", load(valid[:cacheHeaderLen-1], fig5), "not a rule cache"},
		{"truncated record header", load(valid[:cacheHeaderLen+3], fig5), "truncated"},
		{"truncated body", load(valid[:len(valid)-1], fig5), "truncated"},
		{"wrong magic", load(patch(0, 'X'), fig5), "not a rule cache"},
		{"wrong version", load(patch(4, 0, 0, 0, 2), fig5), "version 2"},
		{"trailing bytes", load(append(append([]byte(nil), valid...), 0), fig5), "after the rule cache"},
		{"unknown switch", load(cacheRecord(header(1), 99), fig5), "unknown switch 99"},
		{"switch twice", load(cacheRecord(cacheRecord(header(2), s1), s1), fig5), "twice"},
		{"duplicate rule ID", load(cacheRecord(header(1), s1, rule, rule), fig5), "duplicate rule ID 7"},
		{"fattree4 cache on figure5", load(ft4, fig5), "another topology"},
		{"fattree4 cache on FatTree(6)", load(ft4, FatTree(6)), "another topology"},
		{"fattree4 cache on Linear(20, 1)", load(ft4, Linear(20, 1)), "another topology"},
		{"ACLs refused at save", func() error { _, err := NewMonitor(fig5, withACL, MonitorConfig{}).SaveRules(); return err }, "ACLs"},
	}
	for _, c := range cases {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := LoadRules(ft4, FatTree(4)); err != nil {
		t.Errorf("fattree4 cache on a fresh FatTree(4): %v", err)
	}
}

// FuzzLoadRules: the cache decoder must never panic, and whatever it
// accepts must encode to a cache that decodes to the same rules. The seed
// corpus holds a valid cache, a truncated one, one saved on another
// topology, and one claiming 2^32-1 switch records.
func FuzzLoadRules(f *testing.F) {
	net := Figure5()
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadRules(data, net)
		if err != nil {
			return
		}
		b, err := encodeRules(net, got)
		if err != nil {
			t.Fatalf("decoded cache does not encode: %v", err)
		}
		back, err := LoadRules(b, net)
		if err != nil {
			t.Fatalf("re-encoded cache does not decode: %v", err)
		}
		sameRules(t, back, got)
	})
}
