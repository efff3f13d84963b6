// Cluster: the scale-out collection tier end to end, in process. Three
// frontend ingest nodes each collect a disjoint third of an OUE
// population, seal epochs on a shared epoch clock, and ship their
// sealed tallies — through the CRC-framed wire codec, exactly as the
// HTTP tier would — to a root whose SealedMerger merges them behind an
// epoch barrier. Mid-stream an MGA attacker ramps up inside one
// frontend's slice; because the root recovers on the merged view, the
// attack is identified and LDPRecover* engages just as on a single
// node. The demo also re-sends one frontend's tally every epoch to
// show at-least-once delivery deduping to a no-op, and runs a
// single-node reference collector over the union to verify the merged
// estimates are bit-identical.
//
// The same topology runs as real processes via
//
//	ldprecover serve -role=root -nodes fe-0,fe-1,fe-2 &
//	ldprecover serve -role=frontend -node-id fe-0 -root-addr http://... &
//
// (see README "Scale-out serving").
package main

import (
	"fmt"
	"log"
	"reflect"

	"ldprecover"
	"ldprecover/examples/internal/exenv"
)

func main() {
	const (
		domain      = 64
		epsilon     = 1.0
		nFrontends  = 3
		epochs      = 12
		attackStart = 6
		beta        = 0.1
	)
	users := exenv.Users(30000)
	r := ldprecover.NewRand(11)

	ds, err := ldprecover.ZipfDataset("cluster", domain, int64(users), 1.1)
	if err != nil {
		log.Fatal(err)
	}
	proto, err := ldprecover.NewOUE(domain, epsilon)
	if err != nil {
		log.Fatal(err)
	}
	targets := []int{13, 37}
	mga, err := ldprecover.NewMGA(targets)
	if err != nil {
		log.Fatal(err)
	}

	streamCfg := ldprecover.StreamConfig{
		Params:      proto.Params(),
		Window:      1,
		History:     epochs,
		StableAfter: 2,
		MinHistory:  2,
	}
	// The root: an epoch manager behind the tally merge barrier.
	rootMgr, err := ldprecover.NewEpochManager(streamCfg)
	if err != nil {
		log.Fatal(err)
	}
	nodeIDs := make([]string, nFrontends)
	for i := range nodeIDs {
		nodeIDs[i] = fmt.Sprintf("fe-%d", i)
	}
	merger, err := ldprecover.NewSealedMerger(rootMgr, nodeIDs)
	if err != nil {
		log.Fatal(err)
	}
	// Each frontend is an ordinary sharded accumulator; sealing its
	// epoch is a tally swap that never stops ingest.
	frontends := make([]*ldprecover.ShardedAccumulator, nFrontends)
	for i := range frontends {
		if frontends[i], err = ldprecover.NewShardedAccumulator(domain, 0); err != nil {
			log.Fatal(err)
		}
	}
	// The single-node reference: the same pipeline fed the union.
	refMgr, err := ldprecover.NewEpochManager(streamCfg)
	if err != nil {
		log.Fatal(err)
	}

	truth := ds.Frequencies()
	fmt.Printf("%d users/epoch across %d frontends; MGA (beta=%g, targets %v) from epoch %d\n\n",
		users, nFrontends, beta, targets, attackStart)
	fmt.Println("epoch  attacked  MSE poisoned  MSE recovered  mode          targets")
	var deduped int64
	for e := 0; e < epochs; e++ {
		reports, err := ldprecover.PerturbAll(proto, r, ds.Counts)
		if err != nil {
			log.Fatal(err)
		}
		attacked := " "
		if e >= attackStart {
			attacked = "*"
			m := int64(float64(users) * beta / (1 - beta))
			malicious, err := mga.CraftReports(r, proto, m)
			if err != nil {
				log.Fatal(err)
			}
			// The attacker's users all sit behind frontend 0.
			reports = append(reports, malicious...)
		}
		// Disjoint partition: user u reports to frontend u mod 3.
		for u, rep := range reports {
			if err := frontends[u%nFrontends].Add(rep); err != nil {
				log.Fatal(err)
			}
		}
		if err := refMgr.AddBatch(reports); err != nil {
			log.Fatal(err)
		}

		// The shared epoch clock ticks: every frontend seals and pushes
		// its tally through the wire codec, at-least-once (fe-0 pushes
		// twice; the root dedupes the re-send by (node, epoch)).
		for i, fe := range frontends {
			sealed := fe.SealEpoch()
			tally := &ldprecover.Tally{
				NodeID: nodeIDs[i], Epoch: e, Counts: sealed.Counts(), Total: sealed.Total(),
			}
			sends := 1
			if i == 0 {
				sends = 2
			}
			for s := 0; s < sends; s++ {
				frame, err := ldprecover.MarshalTally(tally)
				if err != nil {
					log.Fatal(err)
				}
				view, err := ldprecover.ValidateTallyFrame(frame)
				if err != nil {
					log.Fatal(err)
				}
				res, err := merger.MergeFrame(view)
				if err != nil {
					log.Fatal(err)
				}
				if res.Duplicate {
					deduped++
				}
			}
		}
		est, info, err := merger.TrySeal()
		if err != nil {
			log.Fatal(err)
		}
		if est == nil || len(info.Missing) > 0 {
			log.Fatalf("epoch %d barrier incomplete: %+v", e, info)
		}
		ref, err := refMgr.Seal()
		if err != nil {
			log.Fatal(err)
		}
		if !reflect.DeepEqual(est, ref) {
			log.Fatalf("epoch %d: merged estimate diverged from the single-node reference", e)
		}

		mseBefore, _ := ldprecover.MSE(est.Poisoned, truth)
		mseAfter, _ := ldprecover.MSE(est.Recovered, truth)
		mode := "LDPRecover"
		if est.PartialKnowledge {
			mode = "LDPRecover*"
		}
		fmt.Printf("%5d  %8s  %12.3E  %13.3E  %-12s  %v\n",
			est.Seq, attacked, mseBefore, mseAfter, mode, est.Targets)
	}

	st := rootMgr.Stats()
	fmt.Printf("\nmerged %d reports over %d epochs from %d frontends; deduped %d re-sent tallies\n",
		st.IngestedTotal, st.Epochs, nFrontends, deduped)
	fmt.Printf("identified targets: %v — every epoch bit-identical to the single-node reference\n",
		st.Targets)
}
