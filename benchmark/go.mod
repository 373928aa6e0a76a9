module github.com/irsgo/irs/benchmark

go 1.24

require github.com/irsgo/irs v0.0.0

replace github.com/irsgo/irs => ../
