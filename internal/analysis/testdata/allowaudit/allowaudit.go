package fixture

func pair() (float64, float64) { return 1, 2 }

func reasoned() bool {
	a, b := pair()
	//lint:allow floatcmp tolerance handled by the caller
	return a == b
}

func bare() bool {
	a, b := pair()
	//lint:allow
	return a == b
}

func unknownName() bool {
	a, b := pair()
	//lint:allow nosuch some reason text
	return a == b
}

func reasonless() bool {
	a, b := pair()
	//lint:allow floatcmp
	return a == b
}
