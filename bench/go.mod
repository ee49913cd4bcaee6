module cmtos/bench

go 1.22

require cmtos v0.0.0

replace cmtos => ../
