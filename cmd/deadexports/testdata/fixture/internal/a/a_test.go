package a

var _ = TestOnly() + helper() + countdown(3) + Square{}.scale(2).Side
