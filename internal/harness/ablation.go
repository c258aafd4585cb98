package harness

import (
	"hoop/internal/engine"
	"hoop/internal/workload"
)

// Ablation quantifies what HOOP's two headline optimizations buy — data
// packing (§III-C, Figure 3) and GC data coalescing (§III-E) — plus the
// §III-I future-work mapping-entry condensing, by running HOOP with each
// mechanism disabled (or, for condensing, enabled) on a representative
// workload mix.
func Ablation(opts Options) (*Grid, error) {
	variants := []struct {
		name string
		mut  func(*engine.Config)
	}{
		{"HOOP (full)", nil},
		{"no packing", func(c *engine.Config) { c.Hoop.DisablePacking = true }},
		{"no coalescing", func(c *engine.Config) { c.Hoop.DisableCoalescing = true }},
		{"no packing+coal.", func(c *engine.Config) {
			c.Hoop.DisablePacking = true
			c.Hoop.DisableCoalescing = true
		}},
		{"condensed table", func(c *engine.Config) { c.Hoop.CondenseMapping = true }},
	}
	workloads := []workload.Workload{
		workload.MustBuild("hashmap", opts.WL),
		workload.MustBuild("btree", opts.WL),
		workload.MustBuild("tpcc", opts.WL),
	}
	txs := opts.txPerCell() / 2

	variants = append(variants,
		struct {
			name string
			mut  func(*engine.Config)
		}{"2 controllers", func(c *engine.Config) { c.Hoop.Controllers = 2 }},
		struct {
			name string
			mut  func(*engine.Config)
		}{"4 controllers", func(c *engine.Config) { c.Hoop.Controllers = 4 }},
	)
	g := &Grid{
		Title:   "Ablation: HOOP variants (throughput and write traffic relative to full HOOP)",
		RowName: "variant",
		Format:  "%.2f",
	}
	for _, wl := range workloads {
		g.Cols = append(g.Cols, wl.Name+" tput", wl.Name+" traffic")
	}
	var cells []Cell
	for _, v := range variants {
		for _, wl := range workloads {
			cells = append(cells, Cell{
				Scheme: engine.SchemeHOOP, Workload: wl, Txs: txs, Seed: opts.Seed + 13, Mut: v.mut,
			})
		}
	}
	opts.attachTrace("ablation", cells)
	mets, _, _, err := runCached(cells, opts, 0)
	if err != nil {
		return nil, err
	}
	base := mets[:len(workloads)] // variant 0 is full HOOP
	for vi, v := range variants {
		g.Rows = append(g.Rows, v.name)
		row := make([]float64, 0, 2*len(workloads))
		for wi := range workloads {
			met := mets[vi*len(workloads)+wi]
			row = append(row,
				met.Throughput()/base[wi].Throughput(),
				met.WritesPerTx()/base[wi].WritesPerTx())
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}
