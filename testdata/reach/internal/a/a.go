// Package a holds the fixture's functions that only a walk over types
// tells apart.
package a

// registered is set by init.
var registered bool

func init() { registered = register() }

// register is reached only from init.
func register() bool { return true }

// Validate shares its name with b.Validate, which main calls; nothing
// calls this one.
func Validate() error { return nil }

// Table is called only from a package-level initializer.
func Table() []int { return []int{1} }

// Max is called only through an instance.
func Max[T int | float64](x, y T) T {
	if x > y {
		return x
	}
	return y
}

// Kept is allowlisted: no program calls it, and it keeps helper alive.
func Kept() { helper() }

func helper() {}
