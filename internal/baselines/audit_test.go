package baselines

import (
	"math/rand"
	"testing"

	"veridp/internal/controller"
	"veridp/internal/dataplane"
	"veridp/internal/faults"
	"veridp/internal/flowtable"
	"veridp/internal/openflow"
	"veridp/internal/topo"
)

func TestAuditCleanOnHealthyTable(t *testing.T) {
	n := topo.Linear(3, 1)
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	if err := c.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	sw := n.SwitchByName("s2").ID
	res := AuditTable(c.Logical()[sw].Table, f.Switch(sw).Config.Table.Rules())
	if !res.Clean() {
		t.Fatalf("healthy table audits dirty: %+v", res)
	}
	if res.DumpBytes == 0 {
		t.Fatal("dump bytes not accounted")
	}
}

func TestAuditFindsEveryFaultClass(t *testing.T) {
	n := topo.Linear(3, 1)
	f := dataplane.NewFabric(n)
	c := controller.New(n, &dataplane.FabricInstaller{Fabric: f})
	if err := c.RouteAllHosts(); err != nil {
		t.Fatal(err)
	}
	sw := n.SwitchByName("s2").ID
	phys := f.Switch(sw).Config.Table
	rules := phys.Rules()
	if len(rules) < 3 {
		t.Fatalf("need ≥3 rules, have %d", len(rules))
	}
	evictedID := rules[0].ID
	modifiedID := rules[1].ID
	if _, err := faults.Evict(f, sw, evictedID); err != nil {
		t.Fatal(err)
	}
	if err := phys.Modify(modifiedID, func(r *flowtable.Rule) { r.OutPort = 1 }); err != nil {
		t.Fatal(err)
	}
	phys.Add(&flowtable.Rule{ID: 9999, Priority: 1, Action: flowtable.ActDrop}) // external rule

	res := AuditTable(c.Logical()[sw].Table, phys.Rules())
	if len(res.Missing) != 1 || res.Missing[0] != evictedID {
		t.Fatalf("missing = %v", res.Missing)
	}
	if len(res.Modified) != 1 || res.Modified[0] != modifiedID {
		t.Fatalf("modified = %v", res.Modified)
	}
	if len(res.Extraneous) != 1 || res.Extraneous[0] != 9999 {
		t.Fatalf("extraneous = %v", res.Extraneous)
	}
}

func TestTableDumpRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var rules []*flowtable.Rule
	for i := 0; i < 50; i++ {
		rules = append(rules, &flowtable.Rule{
			ID:       uint64(i + 1),
			Priority: uint16(rng.Intn(100)),
			Match:    flowtable.Match{DstPrefix: flowtable.Prefix{IP: rng.Uint32(), Len: rng.Intn(33)}.Canonical()},
			Action:   flowtable.ActOutput,
			OutPort:  topo.PortID(rng.Intn(4) + 1),
		})
	}
	got, err := openflow.UnmarshalTableDump(openflow.MarshalTableDump(rules))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rules) {
		t.Fatalf("rules %d", len(got))
	}
	for i := range rules {
		if *got[i] != *rules[i] {
			t.Fatalf("rule %d corrupted: %+v vs %+v", i, got[i], rules[i])
		}
	}
	if _, err := openflow.UnmarshalTableDump([]byte{1}); err == nil {
		t.Fatal("short dump accepted")
	}
}

// BenchmarkTableDumpAudit quantifies the §3.1 inefficiency: per-audit cost
// (serialize + parse + diff) grows linearly with the table.
func BenchmarkTableDumpAudit(b *testing.B) {
	logical := flowtable.NewTable()
	var physical []*flowtable.Rule
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		r := &flowtable.Rule{
			Priority: 24,
			Match:    flowtable.Match{DstPrefix: flowtable.Prefix{IP: rng.Uint32(), Len: 24}.Canonical()},
			Action:   flowtable.ActOutput,
			OutPort:  topo.PortID(rng.Intn(4) + 1),
		}
		id, _ := logical.Add(r)
		pr := *r
		pr.ID = id
		physical = append(physical, &pr)
	}
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		wire := openflow.MarshalTableDump(physical)
		bytes = len(wire)
		rules, err := openflow.UnmarshalTableDump(wire)
		if err != nil {
			b.Fatal(err)
		}
		if res := AuditTable(logical, rules); !res.Clean() {
			b.Fatal("dirty")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes), "bytes/audit")
}
