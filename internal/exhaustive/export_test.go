package exhaustive

// RandomTinySystem exposes TestReductionEquivalence's system generator
// to the external test package.
var RandomTinySystem = randomTinySystem
