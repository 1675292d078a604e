// Command app is the root of the reachability walk's fixture: each use
// below keeps one function under internal/ alive in a way that a match
// on names would not tell from a dead one.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

// table is reached only through a package-level initializer.
var table = a.Table()

func main() {
	if err := b.Validate(); err != nil {
		panic(err)
	}
	var s b.Shape
	fmt.Println(s) // Shape.String is called only by fmt
	area := s.Area // a method value
	fmt.Println(area(), a.Max(1, 2), table)
	b.Stale()
}
