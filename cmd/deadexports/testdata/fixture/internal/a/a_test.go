package a

var _ = TestOnly()
