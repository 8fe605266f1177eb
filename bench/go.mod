module viewmat/bench

go 1.22

require viewmat v0.0.0

replace viewmat => ../
