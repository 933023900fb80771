// Custom circuit example: assemble a circuit with the Builder API, save
// and reload it through the netlist text format, and simulate it with
// the message-passing lp-hj engine (logical processes as HJ tasks).
package main

import (
	"bytes"
	"fmt"
	"log"

	"hjdes/internal/circuit"
	"hjdes/internal/core"
)

func main() {
	// A 4-bit equality comparator: eq = AND over XNOR(a_i, b_i).
	b := circuit.NewBuilder("eq4")
	var bits []circuit.NodeID
	for i := 0; i < 4; i++ {
		a := b.Input(fmt.Sprintf("a%d", i))
		bb := b.Input(fmt.Sprintf("b%d", i))
		bits = append(bits, b.Xnor(a, bb))
	}
	eq := b.And(b.And(bits[0], bits[1]), b.And(bits[2], bits[3]))
	b.Output("eq", eq)
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("built:", c)

	// Round-trip through the netlist format.
	var buf bytes.Buffer
	if err := circuit.Serialize(&buf, c); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("netlist (%d bytes):\n%s\n", buf.Len(), buf.String())
	c2, err := circuit.ParseNetlist(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Simulate a few comparisons on the reloaded circuit with the lp-hj
	// engine, split into two logical processes.
	cases := [][2]uint64{{5, 5}, {5, 6}, {15, 15}, {0, 8}}
	period := c2.SettleTime() + 10
	var waves []map[string]circuit.Value
	for _, cs := range cases {
		m := map[string]circuit.Value{}
		for i := 0; i < 4; i++ {
			m[fmt.Sprintf("a%d", i)] = circuit.Value((cs[0] >> i) & 1)
			m[fmt.Sprintf("b%d", i)] = circuit.Value((cs[1] >> i) & 1)
		}
		waves = append(waves, m)
	}
	res, err := core.RunAndVerify(core.NewLPHJ(core.Options{Partitions: 2}), c2, waves, period)
	if err != nil {
		log.Fatal(err)
	}
	for w, cs := range cases {
		tv, _ := core.ValueAt(res.Outputs["eq"], int64(w+1)*period)
		fmt.Printf("%2d == %2d ? %s\n", cs[0], cs[1], tv.Value)
	}
	fmt.Println("run:", res)
}
