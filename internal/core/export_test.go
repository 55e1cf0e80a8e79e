package core

// IDSpaces exposes the interned interface and member space sizes to the
// external test package.
func (c *Context) IDSpaces() (ifaces, members int) {
	return c.ids.NumIfaces(), c.ids.NumMembers()
}
