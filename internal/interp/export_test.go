package interp

// BuildCNN hands the package's small test CNN to the external test package,
// which needs it where an import of convert would be a cycle here.
var BuildCNN = buildCNN
