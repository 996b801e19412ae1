"""Randomized Hadamard transform sketches.

Ensembles of Hadamard transforms with Gaussian diagonals, the random Fourier
feature map they induce, a distance-estimation structure robust to adaptive
queries, and the concentration experiments backing all of it.  Import each
name from its module (``from rhtsketch.distance import query``); this package
binds only the modules.
"""

from . import distance, ensemble, features, gaussian, hadamard, lab, report
