// Test-only accessors for the package tests and the external examples.

package hoop

// MappingTableLen reports the current number of mapping-table entries.
func (s *Scheme) MappingTableLen() int { return s.table.len() }

func (t *mapTable) len() int { return t.entries.Len() }
