// Accuracy scaling (paper Figure 1).
//
// The headline MimicNet result: as the data center grows, the accuracy
// of a MimicNet estimate stays roughly flat while (a) assuming small
// 2-cluster results are representative and (b) flow-level simulation both
// degrade. This example drives the same experiment harness used by the
// benchmark suite and prints the Figure-1 series.
//
//	go run ./examples/scaling
package main

import (
	"log"
	"os"

	"mimicnet/internal/experiments"
)

func main() {
	r := experiments.NewRunner(experiments.Default())
	r.Log = os.Stderr

	fig1, err := r.Fig1([]int{4, 8, 16})
	if err != nil {
		log.Fatal(err)
	}
	fig1.Fprint(os.Stdout)

	fig9, err := r.Fig9([]int{4, 8, 16})
	if err != nil {
		log.Fatal(err)
	}
	fig9.Fprint(os.Stdout)
}
