module statdb/benchmark

go 1.22

require statdb v0.0.0

replace statdb => ../
