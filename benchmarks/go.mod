module crest/benchmarks

go 1.22

require crest v0.0.0

replace crest => ../
