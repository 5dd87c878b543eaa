"""Text-mode figure rendering (terminal-friendly reproductions).

The paper's two figures are a CCDF plot (Figure 2) and three world
choropleths (Figure 1).  This package renders both as plain text so the
benchmark harnesses can regenerate the *figures*, not just their underlying
series: :func:`render_ccdf` draws multi-series CCDF curves with one y axis,
distinct per-series glyphs and a legend; :func:`render_world_map` shades a
city-anchored world grid with a monochrome density ramp (a sequential
encoding: light → dark = low → high).
"""

from repro.viz.ccdf import render_ccdf
from repro.viz.worldmap import render_world_map

__all__ = ["render_ccdf", "render_world_map"]
