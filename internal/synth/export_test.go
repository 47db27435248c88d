package synth

// PriceEveryTarget makes the relocation and pipe-elimination scans price
// every dead switch they meet (on) or only the first (off, the default), for
// the external tests' everyTarget reference.
func PriceEveryTarget(on bool) { priceEveryTarget = on }

// WithoutFlow is withoutFlow for the external tests' drop-one-flow runs.
var WithoutFlow = withoutFlow
