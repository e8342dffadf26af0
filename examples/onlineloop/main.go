// Command onlineloop demonstrates the continuous-learning loop through
// the public byom API: a cluster's application mix changes abruptly
// mid-trace, and the online learner — fed the serving layer's own
// placement outcomes — retrains on its sliding window, shadow-gates
// each candidate against the live model and hot-swaps the server when
// the gate passes. A frozen-model replay of the same trace shows what
// the drift costs without the loop.
package main

import (
	"fmt"
	"log"

	"repro/byom"
)

const day = 24 * 3600.0

func main() {
	// A drifting trace: cluster 0's mix for three days, then cluster
	// 5's mix (different users, pipelines and archetype weights)
	// spliced on for another three.
	cfgs := byom.ClusterConfigs(10, 1)
	preCfg, postCfg := cfgs[0], cfgs[5]
	preCfg.DurationSec, preCfg.NumUsers = 3*day, 6
	postCfg.DurationSec, postCfg.NumUsers = 3*day, 6
	pre := byom.GenerateCluster(preCfg)
	post := byom.GenerateCluster(postCfg)
	post.Shift(3 * day)
	post.Sort()

	train, preServe := pre.SplitAt(1.5 * day)
	replay := &byom.Trace{Cluster: "drifting"}
	replay.Jobs = append(replay.Jobs, preServe.Jobs...)
	replay.Jobs = append(replay.Jobs, post.Jobs...)
	replay.Sort()

	// The model that will go stale: trained on pre-drift data only.
	cm := byom.DefaultCostModel()
	topts := byom.DefaultTrainOptions()
	topts.NumCategories = 8
	topts.GBDT.NumRounds = 8
	model, err := byom.TrainCategoryModel(train.Jobs, cm, topts)
	if err != nil {
		log.Fatal(err)
	}

	reg := byom.NewModelRegistry()
	if _, err := reg.Publish("demo", model, 0); err != nil {
		log.Fatal(err)
	}
	scfg := byom.DefaultServeConfig(8)
	quota := replay.PeakSSDUsage() * 0.05

	// Frozen baseline: the same trace served by v1 forever.
	frozenSrv, err := byom.NewServerFromRegistry(reg, "demo", cm, scfg)
	if err != nil {
		log.Fatal(err)
	}
	frozenRes, err := byom.RunOnlineLoop(replay, frozenSrv, nil, cm,
		byom.SimConfig{SSDQuota: quota, KeepRecords: true})
	frozenSrv.Close()
	if err != nil {
		log.Fatal(err)
	}

	// The closed loop: 18h retrain cadence plus a drift trigger, every
	// gate decision printed.
	lcfg := byom.DefaultOnlineConfig(8)
	lcfg.Train = topts
	lcfg.RetrainEverySec = 18 * 3600
	lcfg.Window = byom.OnlineWindowConfig{MaxCount: 6000, HorizonSec: 1.5 * day}
	lcfg.Drift = byom.OnlineDriftConfig{TVThreshold: 0.2, MinSamples: 400}
	lcfg.OnEvent = func(ev byom.OnlineEvent) {
		if ev.Err != nil {
			fmt.Printf("t=%4.1fd retrain failed: %v\n", ev.Sec/day, ev.Err)
			return
		}
		verdict := "rejected (no swap)"
		if ev.Accepted {
			verdict = fmt.Sprintf("accepted -> published v%d", ev.Version)
		}
		fmt.Printf("t=%4.1fd retrain on %d jobs (%s trigger): candidate %.2f%% vs live %.2f%% TCO -> %s\n",
			ev.Sec/day, ev.TrainJobs, ev.Trigger, ev.CandidatePct, ev.LivePct, verdict)
	}

	reg2 := byom.NewModelRegistry()
	if _, err := reg2.Publish("demo", model, 0); err != nil {
		log.Fatal(err)
	}
	learner, err := byom.NewOnlineLearner(reg2, "demo", cm, lcfg)
	if err != nil {
		log.Fatal(err)
	}
	defer learner.Close()
	srv, err := byom.NewServerFromRegistry(reg2, "demo", cm, scfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	onlineRes, err := byom.RunOnlineLoop(replay, srv, learner, cm,
		byom.SimConfig{SSDQuota: quota, KeepRecords: true})
	if err != nil {
		log.Fatal(err)
	}

	stats := learner.Stats()
	fmt.Printf("\nloop: %d observations, %d retrains (%d accepted, %d rejected), %d hot swaps, serving v%d\n",
		stats.Observations, stats.Retrains, stats.GateAccepts, stats.GateRejects,
		srv.Swaps(), srv.ModelVersion())

	frozenTail, err := byom.TailSavingsPercent(frozenRes, cm, 3*day)
	if err != nil {
		log.Fatal(err)
	}
	onlineTail, err := byom.TailSavingsPercent(onlineRes, cm, 3*day)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-drift TCO savings: %.3f%% with the loop vs %.3f%% frozen\n", onlineTail, frozenTail)
}
