// FabricInstaller: the in-process southbound path. It applies FlowMods
// directly to the emulated switches' physical tables, playing the role of a
// perfectly healthy OpenFlow agent. The faults package wraps it to emulate
// the §2.2 failure modes (silently dropped installs, priority loss, ...).

package dataplane

import (
	"fmt"

	"veridp/internal/openflow"
	"veridp/internal/topo"
)

// FabricInstaller satisfies the controller's Installer interface against a
// Fabric.
type FabricInstaller struct {
	Fabric *Fabric
}

// Apply executes one FlowMod on the target switch's physical table.
func (fi *FabricInstaller) Apply(f *openflow.FlowMod) error {
	sw := fi.Fabric.Switch(f.Switch)
	if sw == nil {
		return fmt.Errorf("dataplane: no switch %d", f.Switch)
	}
	return openflow.ApplyFlowMod(sw.Config.Table, f)
}

// Barrier is trivially satisfied: the in-process path is synchronous.
func (fi *FabricInstaller) Barrier(topo.SwitchID) error { return nil }
