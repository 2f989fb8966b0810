package flowsim

// capEps is the absolute tolerance for a demand cap to count as reached.
func capEps(cap float64) float64 {
	eps := cap * 1e-9
	if eps < 1e-6 {
		eps = 1e-6
	}
	return eps
}

// saturationEps is the absolute slack below which an arc counts as
// saturated, scaled to its capacity to stay robust across Mbps and Tbps.
func saturationEps(capacity float64) float64 {
	eps := capacity * 1e-9
	if eps < 1e-6 {
		eps = 1e-6
	}
	return eps
}
