package e_test

import "fixture/internal/e"

var _ = e.Lonely()
