"""The relaxation modes of constituent matching.

A leaf beside the scorer in ``valex.passage``, which re-exports it, so that
``eval --mode`` can take its choices from this one token table without
loading the scorer or the annotation format.
"""

from .errors import Vocabulary


class RelaxationMode(Vocabulary):
    EXACT = "exact"
    LEFT = "left"
    OVERLAP = "overlap"
