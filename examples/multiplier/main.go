// Multiplier example: profile the available parallelism of the tree
// multiplier (the paper's Figure 1) and simulate the paper's 12-bit
// multiplier workload on every engine.
package main

import (
	"fmt"
	"log"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
	"hjdes/internal/harness"
)

func main() {
	// Figure 1: available parallelism per computation step for the
	// 6-bit tree multiplier. Low at the inputs, a bulge through the
	// fanout-heavy partial-product reduction, then a decline toward the
	// outputs.
	c6 := circuit.TreeMultiplier(6)
	profile, err := core.ProfileCircuit(c6, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("available parallelism, %v:\n", c6)
	fmt.Printf("steps=%d peak=%d mean=%.1f\n%s\n\n",
		len(profile), core.MaxParallelism(profile), core.MeanParallelism(profile),
		harness.Sparkline(profile))

	// The paper's 12-bit multiplier workload on every engine.
	c := circuit.TreeMultiplier(12)
	stim := circuit.RandomStimulus(c, 2, c.SettleTime()+10, 1)
	fmt.Printf("simulating %v, %d initial events\n", c, stim.NumEvents())
	engines := []core.Engine{
		core.NewSequential(core.Options{DiscardOutputs: true}),
		core.NewSequentialPQ(core.Options{DiscardOutputs: true}),
		core.NewHJ(core.Options{Workers: 4, DiscardOutputs: true}),
		core.NewGalois(core.Options{Workers: 4, DiscardOutputs: true}),
		core.NewGaloisFine(core.Options{Workers: 4, DiscardOutputs: true}),
		core.NewOrdered(core.Options{Workers: 4, DiscardOutputs: true}),
		core.NewLPHJ(core.Options{Workers: 4, Partitions: 16, DiscardOutputs: true}),
	}
	for _, e := range engines {
		res, err := e.Run(c, stim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %v\n", res)
	}
}
