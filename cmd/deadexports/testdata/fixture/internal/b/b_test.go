package b

import "fixture/internal/a"

var _ = a.UsedByOtherTests
