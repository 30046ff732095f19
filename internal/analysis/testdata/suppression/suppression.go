package fixture

func pair() (float64, float64) { return 1, 2 }

func wrongName() bool {
	a, b := pair()
	//lint:allow libpanic wrong name on purpose
	return a == b // want "floating-point =="
}

func rightName() bool {
	a, b := pair()
	//lint:allow floatcmp suppressed on purpose
	return a == b
}
