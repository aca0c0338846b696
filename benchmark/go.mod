module github.com/zkdet/zkdet/benchmark

go 1.22

require github.com/zkdet/zkdet v0.0.0

replace github.com/zkdet/zkdet => ../
