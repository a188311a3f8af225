package traffic

// Active reports whether a transfer is currently running.
func (c *Churn) Active() bool { return c.active != nil }
