package main

import "math"

// reconcileTolerance bounds |serve.unexplained_frac|: the medians of the
// layers a handler calls must explain its median time to within this
// share, or the traced run fails.
const reconcileTolerance = 0.35

// breakdown is one request kind's handler time next to the layers it
// calls. The layers are disjoint calls (decode, the controller decision,
// encode, the log append), so their sum is what they explain.
type breakdown struct {
	Count   int
	Handler float64   // median handler time
	Layers  []float64 // median time of each layer
}

// unexplained is the share of handler time the layers leave unexplained,
// weighting each kind by its request count: sum(n*(handler-layers)) /
// sum(n*handler). It is negative when the layers over-explain.
func unexplained(kinds []breakdown) float64 {
	var rest, total float64
	for _, k := range kinds {
		sum := 0.0
		for _, l := range k.Layers {
			sum += l
		}
		rest += float64(k.Count) * (k.Handler - sum)
		total += float64(k.Count) * k.Handler
	}
	if total == 0 {
		return 0
	}
	return rest / total
}

func reconciled(frac float64) bool { return math.Abs(frac) <= reconcileTolerance }
