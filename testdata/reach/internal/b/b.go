// Package b holds the fixture's reached type and its methods.
package b

// Validate is called by main.
func Validate() error { return nil }

// Shape is reached: main declares one.
type Shape struct{}

// String has fmt.Stringer's name and signature.
func (Shape) String() string { return "shape" }

// Area is used as a method value.
func (Shape) Area() float64 { return 0 }

// Dead is a method of a reached type that nothing calls and no
// interface names.
func (Shape) Dead() int { return 0 }

// Stale is allowlisted, but main calls it.
func Stale() {}
