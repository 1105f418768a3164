"""Seeded-violation corpus: deliberate hits for REP201, REP205 and REP206,
and two layer inversions for ``TestLayerContract``."""
