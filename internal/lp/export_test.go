package lp

// SameAsDense exports sameAsDense to the external tests, which build their
// LPs with the routing formulation.
var SameAsDense = sameAsDense
