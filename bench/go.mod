module mlexray/bench

go 1.24

require mlexray v0.0.0

replace mlexray => ../
