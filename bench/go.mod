module gpunion/bench

go 1.24

require gpunion v0.0.0

replace gpunion => ../
