// Command tool is the product root of the test-only fixture: what it
// names is referenced.
package main

import (
	"fmt"

	"statdb/internal/stats"
)

func main() {
	fmt.Println(stats.Mean([]float64{1, 2}), stats.Summary{N: 2})
	var s stats.Shape = stats.Circle{}
	fmt.Println(stats.Window{Lo: 1, Hi: 3}.Width(), s)
}
