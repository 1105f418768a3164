"""Analysis toolkit: slowdowns, campaign statistics, heatmaps, rendering."""
