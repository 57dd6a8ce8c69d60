package main

import (
	"math"
	"testing"
)

func TestUnexplained(t *testing.T) {
	kinds := []breakdown{
		// 100 admits of 10us, layers explain 8us: 200us left.
		{Count: 100, Handler: 10, Layers: []float64{3, 4, 1}},
		// 50 reads of 4us, fully explained.
		{Count: 50, Handler: 4, Layers: []float64{4}},
	}
	// 200 / (1000 + 200)
	if got, want := unexplained(kinds), 200.0/1200; math.Abs(got-want) > 1e-12 {
		t.Errorf("unexplained = %v, want %v", got, want)
	}
	over := []breakdown{{Count: 1, Handler: 10, Layers: []float64{12}}}
	if got := unexplained(over); got != -0.2 {
		t.Errorf("over-explained = %v, want -0.2", got)
	}
	if got := unexplained(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if !reconciled(reconcileTolerance) || reconciled(-reconcileTolerance-0.01) {
		t.Error("tolerance edge")
	}
}
