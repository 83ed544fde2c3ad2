module veridp/bench

go 1.22

require veridp v0.0.0

replace veridp => ../
