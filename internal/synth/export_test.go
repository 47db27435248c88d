package synth

// PriceEveryTarget makes the candidate scans price every candidate (on): each
// dead switch a relocation or pipe-elimination scan meets, and each candidate
// whose floor already loses. Off, the default, they price only the first dead
// switch and skip a candidate on its floor. It serves the external tests'
// everyTarget reference.
func PriceEveryTarget(on bool) { priceEveryTarget = on }

// WithoutFlow is withoutFlow for the external tests' drop-one-flow runs.
var WithoutFlow = withoutFlow
