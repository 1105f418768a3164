"""Seeded-violation corpus: deliberate hits for REP201 and REP204-REP206."""
