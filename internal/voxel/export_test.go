package voxel

// AccelBuilds reports how many times g's traversal accelerator has been
// built, for the external tests that pin where the build happens.
func (g *Grid) AccelBuilds() int {
	g.accMu.Lock()
	defer g.accMu.Unlock()
	return g.accBuilds
}
