// Command app links part of package lib.
package main

import (
	"fmt"

	"example.com/fixture/lib"
)

func main() { fmt.Println(run()) }

func run() int { return lib.Used() }
