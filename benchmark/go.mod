module voronet/benchmark

go 1.24

require voronet v0.0.0

replace voronet => ../
