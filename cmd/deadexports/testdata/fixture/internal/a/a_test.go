package a

import "fixture/internal/d"

var _ = TestOnly() + helper() + countdown(3) + Square{}.scale(2).Side + d.Helper()
