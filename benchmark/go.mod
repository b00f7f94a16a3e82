module crosse/benchmark

go 1.24

require crosse v0.0.0

replace crosse => ../
