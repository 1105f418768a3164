"""Seeded-violation corpus: deliberate hits for REP201, REP202, REP204-REP206."""
