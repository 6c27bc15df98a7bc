module bristle/bench

go 1.22

require bristle v0.0.0

replace bristle => ../
