package main

import "surfacefix"

func main() {
	c := surfacefix.Config{Set: 1}
	var d surfacefix.Doer = surfacefix.Impl{}
	println(c.Read, d.Do(), surfacefix.Box[int]{}.Get())
}
