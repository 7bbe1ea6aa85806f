package experiments

import "testing"

// TestRestartDiskBeatsRecompute is the acceptance bar for the durable
// disk KV tier: after a crash, re-importing checkpointed prefixes from
// the snapshot store must give at least 2x better mean TTFT than
// rebuilding them with prefill compute, with zero ErrNoSpace in either
// mode.
func TestRestartDiskBeatsRecompute(t *testing.T) {
	cfg := QuickRestart()
	pts := RunRestart(cfg)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	var disk, recompute *RestartPoint
	for i := range pts {
		switch pts[i].Mode {
		case "disk":
			disk = &pts[i]
		case "recompute":
			recompute = &pts[i]
		}
	}
	if disk == nil || recompute == nil {
		t.Fatalf("missing mode rows: %+v", pts)
	}

	for _, p := range []*RestartPoint{disk, recompute} {
		if p.Completed != cfg.Families {
			t.Errorf("%s completed %d of %d requests", p.Mode, p.Completed, cfg.Families)
		}
		if p.NoSpaceErrors != 0 || p.OtherErrors != 0 {
			t.Errorf("%s saw errors: nospace=%d other=%d", p.Mode, p.NoSpaceErrors, p.OtherErrors)
		}
	}

	if disk.RecoveredFiles != cfg.Families {
		t.Errorf("recovered %d files, want %d", disk.RecoveredFiles, cfg.Families)
	}
	if disk.RecoveredTokens != cfg.Families*cfg.PrefixTokens {
		t.Errorf("recovered %d tokens, want %d", disk.RecoveredTokens, cfg.Families*cfg.PrefixTokens)
	}
	if disk.DiskLoads+disk.DiskRecomputes == 0 {
		t.Errorf("disk mode promoted nothing: %+v", disk)
	}
	if recompute.DiskLoads != 0 || recompute.RecoveredFiles != 0 {
		t.Errorf("recompute mode touched the disk tier: %+v", recompute)
	}
	if disk.DiskPages == 0 {
		t.Error("promoted prefixes should keep their durable disk copies")
	}

	if disk.TTFTMean*2 > recompute.TTFTMean {
		t.Errorf("disk TTFT %v not 2x better than recompute %v (speedup %.2fx)",
			disk.TTFTMean, recompute.TTFTMean, disk.Speedup)
	}
}
