package experiments

import "repro/internal/metrics"

// Sweep is one registered experiment: the -exp name cmd/symphony-bench
// selects it by, and the function that runs it.
type Sweep struct {
	Name string
	// Run runs the sweep on its default grid, or on its reduced grid
	// when quick is set. A nonzero seed replaces the config's Seed on the
	// seeded sweeps and is ignored by the others.
	Run func(quick bool, seed int64) Result
}

// Result is one sweep run: the config that produced it, one point per
// cell, and the tables that present the points.
type Result struct {
	Config any
	Points any
	Tables []metrics.Table
}

// Registry lists every sweep in presentation order. docs/EXPERIMENTS.md
// documents each one under the same name.
var Registry = []Sweep{
	sweep("fig3", DefaultFig3, QuickFig3, func(c *Fig3Config) *int64 { return &c.Seed }, RunFig3, fig3Tables),
	sweep("toolcalls", DefaultToolCalls, QuickToolCalls, nil, RunToolCalls, oneTable(ToolCallsTable)),
	sweep("constrained", DefaultConstrained, QuickConstrained, nil, RunConstrained, oneTable(ConstrainedTable)),
	sweep("speculative", DefaultSpeculative, QuickSpeculative, nil, RunSpeculative, oneTable(SpeculativeTable)),
	sweep("multiround", DefaultMultiRound, QuickMultiRound, nil, RunMultiRound, oneTable(MultiRoundTable)),
	sweep("tot", DefaultTree, QuickTree, nil, RunTree, oneTable(TreeTable)),
	sweep("editor", DefaultEditor, QuickEditor, func(c *EditorConfig) *int64 { return &c.Seed }, RunEditor, oneTable(EditorTable)),
	sweep("batching", DefaultBatchPolicy, QuickBatchPolicy, nil, RunBatchPolicy, oneTable(BatchPolicyTable)),
	sweep("overhead", DefaultOverhead, QuickOverhead, nil, RunOverhead, oneTable(OverheadTable)),
	sweep("scaling", DefaultScaling, QuickScaling, func(c *ScalingConfig) *int64 { return &c.Seed }, RunScaling, oneTable(ScalingTable)),
	sweep("pressure", DefaultPressure, QuickPressure, func(c *PressureConfig) *int64 { return &c.Seed }, RunPressure, oneTable(PressureTable)),
	sweep("migrate", DefaultMigrate, QuickMigrate, func(c *MigrateConfig) *int64 { return &c.Seed }, RunMigrate, oneTable(MigrateTable)),
	sweep("slo", DefaultSLO, QuickSLO, func(c *SLOConfig) *int64 { return &c.Seed }, RunSLO, oneTable(SLOTable)),
	sweep("specdec", DefaultSpecdec, QuickSpecdec, func(c *SpecdecConfig) *int64 { return &c.Seed }, RunSpecdec, oneTable(SpecdecTable)),
	sweep("restart", DefaultRestart, QuickRestart, func(c *RestartConfig) *int64 { return &c.Seed }, RunRestart, oneTable(RestartTable)),
	sweep("chaos", DefaultChaos, QuickChaos, func(c *ChaosConfig) *int64 { return &c.Seed }, RunChaos, oneTable(ChaosTable)),
	sweep("prefixcache", DefaultPrefixCache, QuickPrefixCache, func(c *PrefixCacheConfig) *int64 { return &c.Seed }, RunPrefixCache, oneTable(PrefixCacheTable)),
}

// sweep builds a registry entry from a sweep's constructors. seed points
// at the config's Seed field, or is nil for a sweep that takes no seed.
func sweep[C, P any](name string, def, quick func() C, seed func(*C) *int64, run func(C) []P, tables func([]P) []metrics.Table) Sweep {
	return Sweep{Name: name, Run: func(q bool, s int64) Result {
		cfg := def()
		if q {
			cfg = quick()
		}
		if seed != nil && s != 0 {
			*seed(&cfg) = s
		}
		pts := run(cfg)
		return Result{Config: cfg, Points: pts, Tables: tables(pts)}
	}}
}

// oneTable adapts a sweep's single-table renderer to the registry.
func oneTable[P any](table func([]P) metrics.Table) func([]P) []metrics.Table {
	return func(pts []P) []metrics.Table { return []metrics.Table{table(pts)} }
}

// fig3Tables presents Figure 3's two panels, latency then throughput.
func fig3Tables(pts []Fig3Point) []metrics.Table {
	lat, thr := Fig3Tables(pts)
	return []metrics.Table{lat, thr}
}
