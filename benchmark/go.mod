module ursa/benchmark

go 1.24

require ursa v0.0.0

replace ursa => ../
