module mimicnet/bench

go 1.22

require mimicnet v0.0.0

replace mimicnet => ../
