package harness

import (
	"fmt"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/nas"
	"repro/internal/parallel"
)

// ResourceRow is one bar group of Figure 7: the generated network's switch
// and link area normalized to the mesh (and, for links, to the torus).
type ResourceRow struct {
	Benchmark string
	Procs     int

	GenSwitches int
	GenLinkArea int
	GenLinks    int

	MeshSwitchArea int
	MeshLinkArea   int

	// SwitchRatio and LinkRatioMesh normalize to the mesh; the paper's
	// headline numbers are ~0.5 switch area and 0.4-0.77 link area.
	SwitchRatio    float64
	LinkRatioMesh  float64
	LinkRatioTorus float64

	ConstraintsMet bool
	ContentionFree bool
}

// Figure7 reproduces one panel of Figure 7: resource usage of generated
// networks for the five benchmarks, normalized to the mesh. size selects the
// panel: "small" is Figure 7(a) (8/9 nodes), "large" Figure 7(b) (16 nodes).
// The five benchmark cells are independent and run on the Workers pool.
func (c Config) Figure7(size string) ([]ResourceRow, error) {
	names := nas.Names()
	return parallel.MapObserved(c.Obs, "harness.fig7", c.Workers, len(names), func(i int) (ResourceRow, error) {
		name := names[i]
		small, large := nas.PaperProcs(name)
		procs := small
		if size == "large" {
			procs = large
		}
		d, err := c.BuildDesign(name, procs)
		if err != nil {
			return ResourceRow{}, fmt.Errorf("figure7 %s/%d: %v", name, procs, err)
		}
		meshSw, meshLink := floorplan.MeshBaseline(procs)
		_, torusLink := floorplan.TorusBaseline(procs)
		return ResourceRow{
			Benchmark:      name,
			Procs:          procs,
			GenSwitches:    d.Plan.SwitchArea,
			GenLinkArea:    d.Plan.TotalArea(),
			GenLinks:       d.Result.Net.TotalLinks(),
			MeshSwitchArea: meshSw,
			MeshLinkArea:   meshLink,
			SwitchRatio:    float64(d.Plan.SwitchArea) / float64(meshSw),
			LinkRatioMesh:  float64(d.Plan.TotalArea()) / float64(meshLink),
			LinkRatioTorus: float64(d.Plan.TotalArea()) / float64(torusLink),
			ConstraintsMet: d.Result.ConstraintsMet,
			ContentionFree: d.Result.ContentionFree,
		}, nil
	})
}

// RenderResourceTable formats Figure 7 rows as a text table.
func RenderResourceTable(title string, rows []ResourceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %5s | %8s %8s | %8s %8s | %9s %9s %9s | %-5s %-5s\n",
		"bench", "procs", "gen.sw", "gen.link", "mesh.sw", "mesh.lnk", "sw/mesh", "lnk/mesh", "lnk/torus", "degOK", "free")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %5d | %8d %8d | %8d %8d | %9.2f %9.2f %9.2f | %-5v %-5v\n",
			r.Benchmark, r.Procs, r.GenSwitches, r.GenLinkArea,
			r.MeshSwitchArea, r.MeshLinkArea,
			r.SwitchRatio, r.LinkRatioMesh, r.LinkRatioTorus,
			r.ConstraintsMet, r.ContentionFree)
	}
	return b.String()
}
