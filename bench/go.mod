module pptd/bench

go 1.21

require pptd v0.0.0

replace pptd => ../
