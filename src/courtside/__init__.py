"""Deterministic rally-stream engine for tennis broadcast commentary
pipelines: scoring state machine, scoreboard parsing, event streams, court
geometry, hierarchical match memory, prompt assembly and evaluation.

Every name is imported from the module that defines it, e.g.
``from courtside.pipeline import replay_match``. Importing the package loads
none of its modules, so a process loads only the modules its path uses:
numpy loads only with ``court_geometry``, and ``requests`` only with the HTTP
client (``--client http``).
"""

__version__ = "0.1.0"
