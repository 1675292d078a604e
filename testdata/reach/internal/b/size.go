package b

import "unsafe"

// shapeSize is the one use of unsafe in the fixture: a package that
// imports it has no source for the walk to type-check.
var shapeSize = unsafe.Sizeof(Shape{})
