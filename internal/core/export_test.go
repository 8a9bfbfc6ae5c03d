package core

// GapAt evaluates the migration gap v_a(m) − v_b(1−m) through the market's
// probe path, warm-started like a search step.
func (mk *Market) GapAt(a, b ISP, m float64) float64 {
	va, _ := mk.valueAt(SubsidizedISP{ISP: a}, m, false)
	vb, _ := mk.valueAt(SubsidizedISP{ISP: b}, 1-m, false)
	return va - vb
}
