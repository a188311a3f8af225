package scenario

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mlab"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// This file registers every experiment in the repro as a thin spec →
// core-config adapter. The core runners hold the physics; the specs
// hold the knobs. Defaults reproduce the historical per-tool flag
// defaults exactly, so `ccac run <name>` prints the same numbers the
// old binaries did for the same seeds.

// run wraps a core runner with the uniform (ctx, spec, scope)
// signature: a context check up front (simulations are not
// interruptible mid-run; the pool stops dispatching instead), then the
// typed runner.
func run[T any](f func(Spec, *obs.Scope) (T, error)) func(context.Context, Spec, *obs.Scope) (any, error) {
	return func(ctx context.Context, sp Spec, sc *obs.Scope) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return f(sp, sc)
	}
}

// table adapts a typed WriteTable method to the registry's any-typed
// renderer.
func table[T interface{ WriteTable(io.Writer) }]() func(io.Writer, any) {
	return func(w io.Writer, v any) {
		if r, ok := v.(T); ok {
			r.WriteTable(w)
		}
	}
}

func init() {
	Register(Experiment{
		Name:        "fig1",
		Description: "Figure 1 isolation grid: CCA pairs x queue disciplines on one access link",
		Run: run(func(sp Spec, sc *obs.Scope) (*core.Fig1Result, error) {
			return core.RunFig1(core.Fig1Config{
				RateBps:     sp.RateBps,
				OneWayDelay: sp.RTT() / 2,
				Duration:    sp.Duration(),
				BufferBDP:   sp.BufferBDP,
				Obs:         sc,
			})
		}),
		Table: table[*core.Fig1Result](),
	})

	Register(Experiment{
		Name:        "fig2",
		Description: "Figure 2 M-Lab pipeline: synthetic NDT dataset through the passive §3.1 analysis",
		Run: run(func(sp Spec, sc *obs.Scope) (*core.Fig2Result, error) {
			return core.RunFig2(core.Fig2Config{
				Generator: mlab.GeneratorConfig{Flows: sp.Flows, Seed: sp.Seed},
			})
		}),
		Table: func(w io.Writer, v any) {
			if r, ok := v.(*core.Fig2Result); ok {
				_ = r.WriteReport(w)
			}
		},
	})

	Register(Experiment{
		Name:        "fig3",
		Description: "Figure 3 elasticity proof-of-concept: Nimbus probe vs five kinds of cross traffic",
		Defaults: Spec{
			Seed:           1,
			FaultSeed:      1,
			RateBps:        48e6,
			RTTMs:          100,
			PhaseDurationS: 45,
			Phases:         []string{"reno", "bbr", "video", "short", "cbr"},
		},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.Fig3Result, error) {
			return core.RunFig3(core.Fig3Config{
				RateBps:       sp.RateBps,
				OneWayDelay:   sp.RTT() / 2,
				PhaseDuration: time.Duration(sp.PhaseDurationS * float64(time.Second)),
				Phases:        sp.Phases,
				Seed:          sp.Seed,
				BufferBDP:     sp.BufferBDP,
				FaultProfile:  sp.FaultProfile,
				FaultSeed:     sp.FaultSeed,
				Obs:           sc,
			})
		}),
		Table: table[*core.Fig3Result](),
	})

	Register(Experiment{
		Name:        "duel",
		Description: "one contention cell: two CCAs on a bottleneck under a queue discipline and fault profile",
		Defaults:    Spec{CCAs: []string{"reno", "bbr"}},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.DuelResult, error) {
			if len(sp.CCAs) != 2 {
				return nil, fmt.Errorf("scenario: duel wants exactly 2 ccas, got %v", sp.CCAs)
			}
			return core.RunDuel(core.DuelConfig{
				CCA1:         sp.CCAs[0],
				CCA2:         sp.CCAs[1],
				RateBps:      sp.RateBps,
				OneWayDelay:  sp.RTT() / 2,
				Queue:        core.QueueKind(sp.Queue),
				BufferBDP:    sp.BufferBDP,
				Duration:     sp.Duration(),
				FaultProfile: sp.FaultProfile,
				FaultSeed:    sp.FaultSeed,
				Obs:          sc,
			})
		}),
		Table: table[*core.DuelResult](),
	})

	Register(Experiment{
		Name:        "oracle",
		Description: "probe-accuracy study: elasticity verdicts scored against the ground-truth oracle",
		Defaults:    Spec{Trials: 30, Seed: 1},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.OracleResult, error) {
			return core.RunOracle(core.OracleConfig{
				Trials:   sp.Trials,
				Duration: sp.Duration(),
				Seed:     sp.Seed,
				Obs:      sc,
			})
		}),
		Table: table[*core.OracleResult](),
	})

	Register(Experiment{
		Name:        "tslp",
		Description: "congestion vs contention: TSLP and the elasticity probe on the same scenarios",
		Defaults:    Spec{Seed: 1},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.TSLPResult, error) {
			return core.RunTSLP(core.TSLPConfig{
				RateBps:     sp.RateBps,
				OneWayDelay: sp.RTT() / 2,
				Duration:    sp.Duration(),
				Seed:        sp.Seed,
				Obs:         sc,
			})
		}),
		Table: table[*core.TSLPResult](),
	})

	Register(Experiment{
		Name:        "cellular",
		Description: "§5.1 trade-off: each CCA alone on a fading, isolated cellular link",
		Defaults:    Spec{Seed: 1},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.CellularResult, error) {
			return core.RunCellular(core.CellularConfig{
				MeanRateBps: sp.RateBps,
				OneWayDelay: sp.RTT() / 2,
				Duration:    sp.Duration(),
				CCAs:        sp.CCAs,
				Seed:        sp.Seed,
				Obs:         sc,
			})
		}),
		Table: table[*core.CellularResult](),
	})

	Register(Experiment{
		Name:        "access",
		Description: "§2.2 topology: per-user access links behind an overprovisioned core",
		Run: run(func(sp Spec, sc *obs.Scope) (*core.AccessResult, error) {
			return core.RunAccess(core.AccessConfig{
				AccessRateBps: sp.RateBps,
				Duration:      sp.Duration(),
				Obs:           sc,
			})
		}),
		Table: table[*core.AccessResult](),
	})

	Register(Experiment{
		Name:        "accesslink",
		Description: "§2.2 access-link mix: ABR video, web short flows and one bulk update on a home link",
		Defaults:    Spec{Seed: 42},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.AccessLinkResult, error) {
			cfg := core.AccessLinkConfig{
				RateBps:     sp.RateBps,
				OneWayDelay: sp.RTT() / 2,
				Queue:       core.QueueKind(sp.Queue),
				Duration:    sp.Duration(),
				Seed:        sp.Seed,
				Obs:         sc,
			}
			if len(sp.CCAs) > 0 {
				cfg.BulkCCA = sp.CCAs[0]
			}
			return core.RunAccessLink(cfg)
		}),
		Table: table[*core.AccessLinkResult](),
	})

	Register(Experiment{
		Name:        "pulse",
		Description: "abl-pulse: elasticity separation vs pulse frequency and amplitude",
		Run: run(func(sp Spec, sc *obs.Scope) (*core.PulseSweepResult, error) {
			return core.RunPulseSweep(core.PulseSweepConfig{
				Duration: sp.Duration(),
				Obs:      sc,
			})
		}),
		Table: table[*core.PulseSweepResult](),
	})

	Register(Experiment{
		Name:        "buffer",
		Description: "abl-buffer: elasticity separation vs bottleneck buffer depth",
		Run: run(func(sp Spec, sc *obs.Scope) (*core.BufferSweepResult, error) {
			return core.RunBufferSweep(core.BufferSweepConfig{
				Duration: sp.Duration(),
				Obs:      sc,
			})
		}),
		Table: table[*core.BufferSweepResult](),
	})

	Register(Experiment{
		Name:        "subpkt",
		Description: "abl-subpkt: N Reno flows on sub-packet-BDP links",
		Defaults:    Spec{Flows: 8},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.SubPacketResult, error) {
			return core.RunSubPacket(core.SubPacketConfig{
				Flows:    sp.Flows,
				Duration: sp.Duration(),
				Obs:      sc,
			})
		}),
		Table: table[*core.SubPacketResult](),
	})

	Register(Experiment{
		Name:        "huntcell",
		Description: "adversarial-search cell: victim or probe flow vs a cross-traffic schedule on an inline-faulted link",
		Defaults: Spec{
			CCAs:  []string{"reno"},
			Cross: []traffic.Phase{{Kind: "bbr", DurS: 10}, {Kind: "idle", DurS: 5}},
		},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.HuntCellResult, error) {
			cfg := core.HuntCellConfig{
				Probe:        sp.Probe,
				Cross:        sp.Cross,
				RateBps:      sp.RateBps,
				OneWayDelay:  sp.RTT() / 2,
				Queue:        core.QueueKind(sp.Queue),
				BufferBDP:    sp.BufferBDP,
				Seed:         sp.Seed,
				Fault:        sp.Fault,
				FaultProfile: sp.FaultProfile,
				FaultSeed:    sp.FaultSeed,
				Obs:          sc,
			}
			if len(sp.CCAs) > 0 {
				cfg.VictimCCA = sp.CCAs[0]
			}
			return core.RunHuntCell(cfg)
		}),
		Table: table[*core.HuntCellResult](),
	})

	Register(Experiment{
		Name:        "manyflow",
		Description: "population-scale contention cell: a victim CCA pair among N churning background subscribers behind per-user isolation",
		Defaults: Spec{
			CCAs:  []string{"reno", "cubic"},
			Flows: 100,
		},
		Run: run(func(sp Spec, sc *obs.Scope) (*core.ManyFlowResult, error) {
			cfg := core.ManyFlowConfig{
				Users:       sp.Flows,
				RateBps:     sp.RateBps,
				OneWayDelay: sp.RTT() / 2,
				BufferBDP:   sp.BufferBDP,
				Duration:    sp.Duration(),
				Seed:        sp.Seed,
				FluidAbove:  sp.FluidAbove,
				Check:       true,
				Obs:         sc,
			}
			if len(sp.CCAs) > 0 {
				cfg.CCA1 = sp.CCAs[0]
			}
			if len(sp.CCAs) > 1 {
				cfg.CCA2 = sp.CCAs[1]
			}
			return core.RunManyFlow(cfg)
		}),
		Table: table[*core.ManyFlowResult](),
	})

	Register(Experiment{
		Name:        "jitter",
		Description: "abl-jitter: delay contention under token-bucket shaping (§5.2)",
		Run: run(func(sp Spec, sc *obs.Scope) (*core.JitterResult, error) {
			return core.RunJitter(core.JitterConfig{
				Duration: sp.Duration(),
				Obs:      sc,
			})
		}),
		Table: table[*core.JitterResult](),
	})
}
