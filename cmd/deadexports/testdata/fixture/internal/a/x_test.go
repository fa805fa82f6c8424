package a_test

import "fixture/internal/a"

var _ = a.TestOnly()
